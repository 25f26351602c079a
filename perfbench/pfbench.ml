(* One phase of one benchmark run, its result printed as the last stdout
   line for run.py to merge:

     pfbench gen WORKLOAD SEED INPUTS
     pfbench (setup|run|trace) INPUTS SECONDS PF_BROKER_EXE

   [gen] writes the workload's seeded inputs to the file INPUTS, with the
   fingerprints of the reference match sets; the measured phases
   load them from it: [setup] (one set-up sample), [run]
   (the timed run) and [trace] (the per-layer run). *)

let usage () =
  prerr_endline
    "usage: pfbench gen WORKLOAD SEED INPUTS | pfbench (setup|run|trace) INPUTS SECONDS PF_BROKER_EXE";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; name; seed; inputs ] -> (
    match Inputs.kind_of_name name with
    | Some k ->
      let w = Inputs.make k ~seed:(int_of_string seed) in
      Inputs.save inputs { w with expected = Inproc.reference w }
    | None ->
      prerr_endline ("unknown workload " ^ name);
      exit 2)
  | [ _; phase; inputs; seconds; broker ] ->
    let w = Inputs.load inputs in
    let seconds = float_of_string seconds in
    let r =
      match phase, w.kind with
      | "setup", Inputs.Broker_churn -> Brokerrun.setup_trial ~broker w
      | "setup", _ -> Inproc.setup_trial w
      | "run", Inputs.Broker_churn -> Brokerrun.timed_run ~broker w ~seconds
      | "run", _ -> Inproc.timed_run w ~seconds
      | "trace", _ -> Layers.traced_run ~broker w ~seconds
      | _ -> usage ()
    in
    Measure.info r "open_loop_period_ms" (Printf.sprintf "%g" (1000. /. w.rate));
    Measure.info r "ocaml" Sys.ocaml_version;
    Measure.info r "domains" (string_of_int (Inproc.domains ()));
    if !Measure.probe_log <> [] then
      Measure.info r "probe_median_ns" (Printf.sprintf "%.0f" (Measure.median_probe_ns ()));
    Measure.print r
  | _ -> usage ()
