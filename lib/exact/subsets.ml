let guard xs =
  if List.length xs > 30 then
    invalid_arg "Subsets: more than 30 elements"

let iter xs f =
  guard xs;
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = ref [] and rest = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then chosen := arr.(i) :: !chosen
      else rest := arr.(i) :: !rest
    done;
    f (!chosen, !rest)
  done
