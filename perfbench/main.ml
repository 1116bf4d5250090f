(* The benchmark CLI: runs one workload in this process and prints its
   metrics, the last line being one JSON object

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   with the end-to-end metrics (--trace 0) or the per-layer metrics of a
   traced run (--trace 1).  Build and run it through perfbench/run.py. *)

module M = Perfbench.Metric

(* The stated share of a traced op that may fall outside every layer
   span (the benchmark's own glue and the tracer's own cost, which is
   largest on serve-open's microsecond ops); above it the run fails. *)
let max_unattributed = 0.25

let workloads =
  [
    ("plan", Perfbench.Wl_plan.run ?size:None);
    ("sweep", Perfbench.Wl_sweep.run ?size:None);
    ("serve-open", Perfbench.Wl_serve.run_open ?size:None);
    ("serve-overload", Perfbench.Wl_serve.run_overload ?size:None);
  ]

(* traced runs write their spans here, inside the checkout *)
let spans_dir = ".perfbench"

let json_float x =
  (* JSON has no infinity: a failed op's +inf percentile prints as the
     largest float, and the run is reported incorrect *)
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else Printf.sprintf "%.17g" Float.max_float

let usage () =
  prerr_endline
    "usage: main.exe --workload (plan|sweep|serve-open|serve-overload) \
     --seed N --seconds S --trace (0|1) [--nproc N]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and nproc = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: tl -> workload := w; parse tl
    | "--seed" :: s :: tl -> seed := int_of_string s; parse tl
    | "--seconds" :: s :: tl -> seconds := float_of_string s; parse tl
    | "--trace" :: t :: tl -> trace := t = "1"; parse tl
    | "--nproc" :: n :: tl -> nproc := int_of_string n; parse tl
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> usage ()
  in
  let r = run ~seed:!seed ~seconds:!seconds ~trace:!trace () in
  let meta =
    [
      ("workload", M.json_string !workload);
      ("seed", string_of_int !seed);
      ("seconds", json_float !seconds);
      ("trace", string_of_bool !trace);
      ("nproc", string_of_int !nproc);
      ("domains", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", M.json_string Sys.ocaml_version);
    ]
    @ r.M.meta
  in
  print_endline
    ("meta {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) meta)
    ^ "}");
  let wanted = if !trace then M.per_layer else M.end_to_end in
  let found name = List.find_opt (fun (m : M.t) -> m.name = name) r.metrics in
  let missing =
    List.filter (fun (s : M.spec) -> found s.name = None) M.end_to_end
  in
  List.iter (fun (s : M.spec) -> Printf.printf "error: %s not measured\n" s.name) missing;
  (* a per-layer metric of a layer this workload never calls reads 0 *)
  let shown =
    List.map
      (fun (s : M.spec) ->
        match found s.name with
        | Some m when m.unit_ <> s.unit_ ->
            failwith (Printf.sprintf "%s measured in %s, not %s" s.name m.unit_ s.unit_)
        | Some m -> m
        | None -> M.v s.name s.unit_ 0.)
      wanted
  in
  List.iter
    (fun (m : M.t) -> Printf.printf "%-36s %14.6g %s\n" m.name m.value m.unit_)
    shown;
  List.iter (Printf.printf "failure: %s\n") r.failures;
  let unattributed_ok =
    match found "trace.unattributed_frac" with
    | Some m when m.value > max_unattributed ->
        Printf.printf
          "failure: %.1f%% of the traced op time is outside every layer span \
           (stated bound %.0f%%)\n"
          (100. *. m.value) (100. *. max_unattributed);
        false
    | _ -> true
  in
  Option.iter
    (fun tr ->
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      let path =
        Filename.concat spans_dir
          (Printf.sprintf "spans-%s-%d.tsv" !workload !seed)
      in
      Perfbench.Span.write tr path;
      Printf.printf "spans written to %s\n" path)
    r.spans;
  let correct =
    r.failed = 0 && missing = [] && unattributed_ok
    && List.for_all (fun (m : M.t) -> Float.is_finite m.value) shown
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (m : M.t) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_float m.value) m.unit_)
          shown))
