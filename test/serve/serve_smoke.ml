(* CI smoke for the streaming service (the @serve alias): a 10k-job
   seeded run with a derating fault injected mid-stream. The run must
   come back [Ok] — the engine returns [Error (Deadline_miss _)] if any
   admitted job ever completes late, so [Ok] IS the zero-miss assertion
   — and the incident log must be non-empty (at minimum the fault
   strike itself is recorded). [dune runtest] diffs the printed counts,
   and the outcome's energy and total in hex, against
   serve_smoke.expected. *)

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let n = 10_000
let mean_cycles = 25.

let () =
  let source =
    Rt_serve.Source.synthetic ~seed:7 ~limit:n ~rate:(1.4 /. mean_cycles)
      ~s_max:1. ~mean_cycles ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3 ()
  in
  (* ~178k time units of stream; derate well inside it, with plenty of
     admitted work in flight *)
  let config =
    {
      Rt_serve.Serve.default_config with
      policy = Rt_online.Admission.Profitable;
      m = 2;
      faults =
        [
          { Rt_fault.Fault.at = 30_000.;
            fault = Rt_fault.Fault.Speed_derate { factor = 0.6 } };
        ];
    }
  in
  match Rt_serve.Serve.run ~proc ~config source with
  | Error e ->
      Printf.eprintf "serve_smoke: FAILED: %s\n"
        (Rt_online.Admission.error_to_string e);
      exit 1
  | Ok r ->
      let incidents = List.length r.Rt_serve.Serve.incidents in
      if r.Rt_serve.Serve.seen <> n then begin
        Printf.eprintf "serve_smoke: FAILED: saw %d of %d jobs\n"
          r.Rt_serve.Serve.seen n;
        exit 1
      end;
      if incidents = 0 then begin
        Printf.eprintf
          "serve_smoke: FAILED: injected fault left no incident\n";
        exit 1
      end;
      let o = r.Rt_serve.Serve.outcome in
      Printf.printf
        "serve_smoke: OK — %d jobs, %d admitted, %d rejected (%d forced, \
         %d replan-shed), %d incidents, zero admitted-deadline misses\n"
        r.Rt_serve.Serve.seen
        (List.length o.Rt_online.Admission.admitted)
        (List.length o.Rt_online.Admission.rejected)
        o.Rt_online.Admission.forced_rejections
        r.Rt_serve.Serve.replan_shed incidents;
      Printf.printf "serve_smoke: energy %h, total %h\n"
        o.Rt_online.Admission.energy o.Rt_online.Admission.total
