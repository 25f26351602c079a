(* The in-process workloads (nitf-distinct, deep-stream): documents go
   through Pf_service.submit_raw, the service's public entry point, and
   every delivered match set is compared with the sequential default
   Engine's answer for the same document. *)

open Measure

(* run.py pins a run to one CPU (see Measure's host speed), so the
   service runs one worker domain: a second would only share its core. *)
let domains () = 1

(* The oracle: the sequential default engine (tree ingest, no
   subsumption) fed the same XPEs in the same order. Rejected XPEs
   consume no sid in either, so sids line up. It runs when the inputs
   are generated, so its engine never shares a process with the one
   measured. *)
let reference (w : Inputs.t) =
  let e = Pf_core.Engine.create () in
  Array.iter (fun q -> try ignore (Pf_core.Engine.add e q) with Pf_intf.Unsupported _ -> ()) w.exprs;
  Array.map (fun d -> Inputs.fingerprint (Pf_core.Engine.match_string e d)) w.docs

(* Fresh service plus registration of every XPE: what setup_s times. *)
let setup (r : result) (w : Inputs.t) =
  let svc = Pf_service.create ~domains:(domains ()) (Inputs.filter w.kind) in
  Array.iter
    (fun q ->
      r.attempted <- r.attempted + 1;
      try ignore (Pf_service.subscribe svc q) with Pf_intf.Unsupported _ -> r.failed <- r.failed + 1)
    w.exprs;
  svc

(* Deliveries land on worker domains; when [check] is set, each match set
   is compared there with the reference's fingerprint, and the in-flight
   count is released under one lock. *)
type flight = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable inflight : int;
  mutable submitted : int;
  mutable delivered : int;
  mutable mismatches : int;
}

let flight () =
  {
    mu = Mutex.create ();
    cv = Condition.create ();
    inflight = 0;
    submitted = 0;
    delivered = 0;
    mismatches = 0;
  }

let submit (r : result) fl svc (w : Inputs.t) check i ~on_done =
  let d = i mod Array.length w.docs in
  Mutex.lock fl.mu;
  fl.inflight <- fl.inflight + 1;
  fl.submitted <- fl.submitted + 1;
  Mutex.unlock fl.mu;
  r.attempted <- r.attempted + 1;
  Pf_service.submit_raw svc w.docs.(d) (fun sids ->
      on_done ();
      let wrong = check && Inputs.fingerprint sids <> w.expected.(d) in
      Mutex.lock fl.mu;
      if wrong then fl.mismatches <- fl.mismatches + 1;
      fl.delivered <- fl.delivered + 1;
      fl.inflight <- fl.inflight - 1;
      Condition.broadcast fl.cv;
      Mutex.unlock fl.mu)

let wait_below fl n =
  Mutex.lock fl.mu;
  while fl.inflight >= n do
    Condition.wait fl.cv fl.mu
  done;
  Mutex.unlock fl.mu

(* Closed loop in bursts of [Inputs.burst] consecutive documents, each
   timed from its first submission to its last delivery by [burst ~first
   ~n] and scaled to the nominal host speed by the probe after it.
   Bursts walk the document set in order, for whole passes over it (at
   least [min_passes], and at least [seconds]). The rate is the document
   set over the sum, across burst positions, of each position's median
   scaled time. *)
let min_passes = 2

let burst_rate (w : Inputs.t) ~seconds burst =
  let nd = Array.length w.docs and b = Inputs.burst w.kind in
  let times = Array.make ((nd + b - 1) / b) [] in
  let t_start = now_ns () in
  let passes = ref 0 in
  start_slices ();
  while !passes < min_passes || s_since t_start < seconds do
    Array.iteri
      (fun k ts ->
        let t0 = now_ns () in
        burst ~first:(k * b) ~n:(min nd ((k + 1) * b) - (k * b));
        let raw = s_since t0 in
        times.(k) <- (raw *. factor ()) :: ts)
      times;
    incr passes
  done;
  float nd /. Array.fold_left (fun a ts -> a +. median (Array.of_list ts)) 0. times

(* In process, up to [Inputs.window] documents of a burst in flight. *)
let closed_loop r fl svc (w : Inputs.t) check ~seconds =
  burst_rate w ~seconds (fun ~first ~n ->
      for i = first to first + n - 1 do
        wait_below fl Inputs.window;
        submit r fl svc w check i ~on_done:ignore
      done;
      wait_below fl 1)

(* Open loop: sends at the workload's rate, document i mod nd for send
   i, for whole passes over the set: at least two, more when [seconds]
   at the rate holds more. The sends go in segments of [segment_s]: send
   j of a segment is due at the segment's start plus j periods, whatever
   happened before. Latency runs from the due time to the delivery, so a
   stall counts against every document queued behind it in its segment.
   After a segment's last delivery the probe runs, and the segment's
   latencies are scaled by it; then the next segment starts. The
   generator's own lateness is how long after max(due, end of the
   previous submit) it started the submit: backpressure (a blocking
   submit) is the system's delay, not the generator's. [beside ~t_end]
   runs on a thread of its own beside each segment, until the segment's
   last send is due (t_end). *)
let segment_s = 1.

type open_result = {
  latency_ms : float array;  (* per send, raw; nan when never answered *)
  scaled_ms : float array;  (* per send, at the nominal host speed *)
  late_ms : float array;
}

let sends (w : Inputs.t) ~seconds =
  let nd = Array.length w.docs in
  nd * max 2 ((int_of_float (w.rate *. seconds) + nd - 1) / nd)

(* [send i ~finished] sends send i and stores its answer's time in
   [finished.(i)]; [drain ()] returns once every send so far is
   answered. *)
let run_open_loop ?beside (w : Inputs.t) ~seconds ~send ~drain =
  let n = sends w ~seconds in
  let per_segment = max 8 (int_of_float (w.rate *. segment_s)) in
  let period = 1e9 /. w.rate in
  let finished = Array.make n 0L and due = Array.make n 0L and late = Array.make n 0. in
  let scale = Array.make n nan in
  start_slices ();
  let first = ref 0 in
  while !first < n do
    let last = min n (!first + per_segment) - 1 in
    let t0 = Int64.add (now_ns ()) 1_000_000L in
    for i = !first to last do
      due.(i) <- Int64.add t0 (Int64.of_float (float (i - !first) *. period))
    done;
    let th = Option.map (fun f -> Thread.create (fun t_end -> f ~t_end) due.(last)) beside in
    let prev_end = ref t0 in
    Fun.protect ~finally:(fun () -> Option.iter Thread.join th) (fun () ->
        for i = !first to last do
          sleep_until due.(i);
          let start = now_ns () in
          let ready = if Int64.compare due.(i) !prev_end > 0 then due.(i) else !prev_end in
          late.(i) <- Int64.to_float (Int64.sub start ready) /. 1e6;
          send i ~finished;
          prev_end := now_ns ()
        done;
        drain ());
    Array.fill scale !first (last - !first + 1) (factor ());
    first := last + 1
  done;
  let latency_ms =
    Array.mapi (fun i t -> if t = 0L then nan else Int64.to_float (Int64.sub t due.(i)) /. 1e6) finished
  in
  { latency_ms; scaled_ms = Array.mapi (fun i l -> l *. scale.(i)) latency_ms; late_ms = late }

let open_loop r fl svc (w : Inputs.t) check ~seconds =
  run_open_loop w ~seconds
    ~send:(fun i ~finished -> submit r fl svc w check i ~on_done:(fun () -> finished.(i) <- now_ns ()))
    ~drain:(fun () -> wait_below fl 1)

(* The latency quantile [q] over documents, each document's latency the
   median over its passes: a stray slow send moves one document's
   median, not the quantile. *)
let latency_quantile q nd (latency_ms : float array) =
  quantile q
    (Array.init nd (fun d ->
         Array.to_list latency_ms
         |> List.filteri (fun i _ -> i mod nd = d)
         |> Array.of_list
         |> median))

(* Malformed documents and other worker-side failures re-raise at
   shutdown; they count as failed operations, never as a crash. *)
let shutdown r svc =
  try Pf_service.shutdown svc
  with e ->
    r.failed <- r.failed + 1;
    error r ("service shutdown: " ^ Printexc.to_string e)

(* Every submitted document must come back exactly once with the
   oracle's match set: submitted = delivered + failed. *)
let check_flight r fl ~what =
  if fl.delivered <> fl.submitted then begin
    r.failed <- r.failed + (fl.submitted - fl.delivered);
    error r (Printf.sprintf "%s: %d documents submitted, %d delivered" what fl.submitted fl.delivered)
  end;
  if fl.mismatches > 0 then
    error r (Printf.sprintf "%s: %d documents delivered a match set that differs from the sequential engine" what fl.mismatches)

(* Set-up samples in a fresh process: up to [setup_reps] times (fewer
   once [setup_budget_s] is spent) a fresh service is started and every
   XPE registered (setup_s, their median), then one document is answered
   (recovery_s, their median: fresh start to the first answered
   document, which waits for the worker's replica to catch up; a service
   keeps no durable state, so this is its restart). Both are scaled to
   the nominal host speed by the probes around each sample. *)
let setup_reps = 5
let setup_budget_s = 2.

let setup_trial (w : Inputs.t) =
  let r = result () in
  let setup_s = ref [] and recovery_s = ref [] in
  let start = now_ns () in
  let k = ref 0 in
  while !k = 0 || (!k < setup_reps && s_since start < setup_budget_s) do
    Gc.full_major ();
    start_slices ();
    let t0 = now_ns () in
    let svc = setup r w in
    let setup_raw = s_since t0 in
    let fl = flight () in
    submit r fl svc w false 0 ~on_done:ignore;
    wait_below fl 1;
    let recovery_raw = s_since t0 in
    let f = factor () in
    setup_s := (setup_raw *. f) :: !setup_s;
    recovery_s := (recovery_raw, recovery_raw *. f) :: !recovery_s;
    shutdown r svc;
    check_flight r fl ~what:"setup pass";
    incr k
  done;
  metric r "setup_s" (median (Array.of_list !setup_s));
  metric r "recovery_s" (median (Array.of_list (List.map snd !recovery_s)));
  info r "raw_recovery_s" (Printf.sprintf "%.4f" (median (Array.of_list (List.map fst !recovery_s))));
  r

(* Peak memory: every worker domain answers each of the first [rss_docs]
   documents (one copy per domain, each submitted once the previous copy
   has had time to be taken), so each replica has met the deepest, then
   VmHWM is read. The process holds only the loaded inputs besides the
   service: they were generated, and the reference computed, elsewhere.
   [inputs_rss_mb] records what the inputs alone held. *)
let rss_docs = 32

let rss_pass r fl svc (w : Inputs.t) =
  for i = 0 to min rss_docs (Array.length w.docs) - 1 do
    for _ = 1 to domains () do
      submit r fl svc w true i ~on_done:ignore;
      Unix.sleepf 0.002
    done;
    wait_below fl 1
  done;
  peak_rss_mb ()

(* The timed run: the peak-memory pass, a warm-up pass, closed loop for
   a third of [seconds], then open loop for the rest: the closed loop's
   rate is the steadier figure, and the open loop's per-document
   latencies need the passes. *)
let closed_share = 1. /. 3.

let timed_run (w : Inputs.t) ~seconds =
  let r = result () in
  info r "inputs_rss_mb" (Printf.sprintf "%.1f" (status_mb "VmRSS"));
  let svc = setup r w in
  let fl = flight () in
  let peak_rss = rss_pass r fl svc w in
  Array.iteri
    (fun i _ ->
      wait_below fl Inputs.window;
      submit r fl svc w true i ~on_done:ignore)
    w.docs;
  wait_below fl 1;
  let docs_per_s = closed_loop r fl svc w true ~seconds:(closed_share *. seconds) in
  let ol = open_loop r fl svc w true ~seconds:((1. -. closed_share) *. seconds) in
  shutdown r svc;
  check_flight r fl ~what:"timed run";
  let nd = Array.length w.docs in
  metric r "peak_rss_mb" peak_rss;
  metric r "docs_per_s" docs_per_s;
  metric r "latency_p50_ms" (latency_quantile 0.5 nd ol.scaled_ms);
  metric r "latency_p90_ms" (latency_quantile 0.9 nd ol.scaled_ms);
  metric r "loadgen.late_p99_ms" (quantile 0.99 ol.late_ms);
  info r "raw_latency_p50_ms" (Printf.sprintf "%.3f" (latency_quantile 0.5 nd ol.latency_ms));
  info r "raw_latency_p90_ms" (Printf.sprintf "%.3f" (latency_quantile 0.9 nd ol.latency_ms));
  info r "open_loop_sends" (string_of_int (Array.length ol.latency_ms));
  r
