(* Driver behind the [@fuzz] dune alias: the fixed-seed CI configuration
   of the differential fuzzer. Exit status 1 when any oracle or law
   failure survives minimization, so the alias fails the build.
   [dune runtest] diffs the summary against fuzz_main.expected, so a
   change that skips or adds checks shows too. *)

let () =
  let config =
    match Sys.getenv_opt "RT_FUZZ_COUNT" with
    | None -> Rt_check.Fuzz.default_config
    | Some s -> (
        match int_of_string_opt s with
        | Some count when count > 0 ->
            { Rt_check.Fuzz.default_config with Rt_check.Fuzz.count = count }
        | _ -> Rt_check.Fuzz.default_config)
  in
  let report = Rt_check.Fuzz.run ~config () in
  print_string (Rt_check.Fuzz.summary report);
  if report.Rt_check.Fuzz.failures <> [] then exit 1
