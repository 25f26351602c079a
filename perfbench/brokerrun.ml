(* broker-churn: a pf-broker child process with a WAL on local disk and a
   unix socket, driven through Pf_net.Client. Every delivery and every
   mutation acknowledgement is compared with an in-process Broker fed the
   same command history. *)

open Measure
module B = Pf_broker.Broker
module C = Pf_net.Client

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Scratch space lives inside the checkout; the socket path stays
   relative and short (unix socket paths are capped near 100 bytes). *)
let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir tag =
  let d = Printf.sprintf ".bench_run/%s-%d" tag (Unix.getpid ()) in
  rm_rf d;
  mkdir_p d;
  d

type child = { pid : int; sock : string }

(* Children still running; killed at exit, also when a phase dies of an
   exception, so no pf-broker outlives the benchmark. *)
let running : child list ref = ref []

let stop c signal =
  (try Unix.kill c.pid signal with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] c.pid);
  running := List.filter (fun o -> o.pid <> c.pid) !running

let () =
  at_exit (fun () -> List.iter (fun c -> stop c Sys.sigkill) !running);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2))

let spawn ~broker ~dir =
  let sock = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "broker.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let args =
    [| broker; "-l"; "unix:" ^ sock; "-d"; Filename.concat dir "data";
       "--domains"; string_of_int (Inproc.domains ()) |]
  in
  let pid = Unix.create_process broker args null log log in
  Unix.close log;
  Unix.close null;
  let c = { pid; sock } in
  running := c :: !running;
  c

let alive c = match Unix.waitpid [ WNOHANG ] c.pid with 0, _ -> true | _ -> false

(* Connect as soon as the child accepts: readiness is the first WELCOME. *)
let connect ?ns c =
  let deadline = Int64.add (now_ns ()) 60_000_000_000L in
  let rec go () =
    match C.connect ?ns (Pf_net.Server.Unix_sock c.sock) with
    | cl -> cl
    | exception (C.Disconnected _ | Unix.Unix_error _) ->
      if (not (alive c)) || Int64.compare (now_ns ()) deadline > 0 then
        failwith "pf-broker did not come up (see its broker.log)";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* The in-process oracle: the broker's default engine, same commands in
   the same order. *)
type oracle = { ob : B.t; subscribed : B.event list array; deliveries : (string * int list) list array }

let oracle (w : Inputs.t) =
  let ob = B.create () in
  let subscribed =
    Array.mapi
      (fun i q ->
        B.apply ob
          (B.Subscribe
             { ns = ""; subscriber = Inputs.subscriber ~n:(Array.length w.exprs) i;
               expr = Pf_xpath.Parser.to_string q }))
      w.exprs
  in
  let deliveries =
    Array.map
      (fun doc ->
        match B.apply ob (B.Publish { ns = ""; doc }) with
        | [ B.Delivered { deliveries } ] -> deliveries
        | _ -> [])
      w.docs
  in
  { ob; subscribed; deliveries }

let ack_of_event = function
  | [ B.Subscribed { id; suppressed } ] -> Ok (id, suppressed)
  | [ B.Failed { error } ] -> Error error
  | _ -> Error (Pf_intf.Protocol_error "unexpected event")

(* Start a fresh broker and register every XPE over the wire, each
   acknowledgement after its WAL fsync: what setup_s times. *)
let setup (r : result) ~broker ~dir (w : Inputs.t) ~check =
  let t0 = now_ns () in
  let c = spawn ~broker ~dir in
  let cl = connect c in
  Array.iteri
    (fun i q ->
      r.attempted <- r.attempted + 1;
      let subscriber = Inputs.subscriber ~n:(Array.length w.exprs) i in
      let ack = C.subscribe cl ~subscriber (Pf_xpath.Parser.to_string q) in
      (match ack with Error _ -> r.failed <- r.failed + 1 | Ok _ -> ());
      match check with
      | Some o when ack <> ack_of_event o.subscribed.(i) ->
        error r (Printf.sprintf "subscription %d acknowledged differently from the in-process broker" i)
      | _ -> ())
    w.exprs;
  c, cl, s_since t0

(* Publish documents [first, first + n) with [Inputs.window] in flight;
   checks each delivery against the oracle. *)
let publish_window (r : result) cl (w : Inputs.t) ~first ~n ~check =
  let nd = Array.length w.docs in
  let inflight = Queue.create () in
  let settle () =
    let req, d = Queue.pop inflight in
    match C.await cl req with
    | Ok ds -> (
      match check with
      | Some o when ds <> o.deliveries.(d) ->
        error r (Printf.sprintf "document %d: wire deliveries differ from the in-process broker" d)
      | _ -> ())
    | Error _ -> r.failed <- r.failed + 1
  in
  for i = first to first + n - 1 do
    if Queue.length inflight >= Inputs.window then settle ();
    r.attempted <- r.attempted + 1;
    Queue.add (C.publish_async cl w.docs.(i mod nd), i mod nd) inflight
  done;
  while not (Queue.is_empty inflight) do
    settle ()
  done

(* Closed loop in bursts, as in [Inproc.closed_loop]. *)
let closed_loop r cl (w : Inputs.t) ~seconds ~check =
  Inproc.burst_rate w ~seconds (fun ~first ~n -> publish_window r cl w ~first ~n ~check)

(* The open loop of [Inproc.run_open_loop] on its own connection:
   this thread sends each PUBLISH at its due time with [C.publish_async]
   while a reader thread collects the replies in request order with
   [C.await] and stamps them. The two threads share the client without a
   lock because they touch disjoint parts of it: publish_async only
   draws the next request id and writes the socket, await only reads the
   socket and the stash of early replies. A reply that overtakes an
   earlier one is stamped when the earlier one arrives. [beside] carries
   the churn. *)
let open_loop (r : result) c (w : Inputs.t) ~seconds ~(o : oracle) ~beside =
  let n = Inproc.sends w ~seconds and nd = Array.length w.docs in
  let cl = connect c in
  let ids = Array.make n 0 and sent = ref 0 and answered = ref 0 in
  let mu = Mutex.create () and cv = Condition.create () in
  let stamps = ref [||] in
  let failures = ref 0 and mismatches = ref 0 and dead = ref false in
  let reader =
    Thread.create
      (fun () ->
        try
          for i = 0 to n - 1 do
            Mutex.lock mu;
            while !sent <= i do
              Condition.wait cv mu
            done;
            Mutex.unlock mu;
            let res = C.await cl ids.(i) in
            !stamps.(i) <- now_ns ();
            (match res with
            | Ok ds -> if ds <> o.deliveries.(i mod nd) then incr mismatches
            | Error _ -> incr failures);
            Mutex.lock mu;
            incr answered;
            Condition.broadcast cv;
            Mutex.unlock mu
          done
        with C.Disconnected _ ->
          Mutex.lock mu;
          dead := true;
          Condition.broadcast cv;
          Mutex.unlock mu)
      ()
  in
  let send i ~finished =
    stamps := finished;
    r.attempted <- r.attempted + 1;
    let id = C.publish_async cl w.docs.(i mod nd) in
    Mutex.lock mu;
    ids.(i) <- id;
    incr sent;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  let drain () =
    Mutex.lock mu;
    while !answered < !sent && not !dead do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  let ol =
    try Some (Inproc.run_open_loop ~beside w ~seconds ~send ~drain)
    with C.Disconnected m ->
      error r ("open-loop connection: " ^ m);
      None
  in
  (* a dead connection leaves the reader waiting for sends that never
     come: release it *)
  Mutex.lock mu;
  let early_end = !sent < n in
  if early_end then begin
    C.close cl;
    sent := n;
    Condition.broadcast cv
  end;
  Mutex.unlock mu;
  Thread.join reader;
  if not early_end then C.close cl;
  r.failed <- r.failed + !failures;
  if !mismatches > 0 then
    error r (Printf.sprintf "%d open-loop deliveries differ from the in-process broker" !mismatches);
  match ol with
  | Some ol ->
    let lost = Array.fold_left (fun a l -> if Float.is_nan l then a + 1 else a) 0 ol.latency_ms in
    r.failed <- r.failed + lost;
    if lost > 0 then error r (Printf.sprintf "%d open-loop publishes never answered" lost);
    ol
  | None ->
    r.failed <- r.failed + (n - !answered);
    { Inproc.latency_ms = [| nan |]; scaled_ms = [| nan |]; late_ms = [| nan |] }

(* Subscribe/unsubscribe churn in namespace "churn" at [Inputs.churn_rate]
   pairs per second on its own connection, beside each open-loop
   segment.
   Publishes go to namespace "", so churn never changes their
   deliveries and the oracle stays deterministic however the two
   streams interleave. Each subscribe's acknowledgement latency is kept
   raw: it is mostly the WAL's fsync, which the probe says nothing
   about. *)
type churn = {
  ccl : C.t;
  cw : Inputs.t;
  mutable k : int;  (* pairs so far *)
  mutable live : int option;  (* the last pair's subscription, cancelled by the next *)
  mutable lat : float list;  (* subscribe latencies, ms *)
  mutable history : (B.command * B.event list) list;  (* newest first *)
}

let churn_unsubscribe ch id =
  let ack =
    match C.unsubscribe ch.ccl id with
    | Ok existed -> [ B.Unsubscribed { id; existed } ]
    | Error error -> [ B.Failed { error } ]
  in
  ch.history <- (B.Unsubscribe { ns = "churn"; id }, ack) :: ch.history;
  ch.live <- None

let churn r ch ~t_end =
  let period = 1e9 /. Inputs.churn_rate in
  let t0 = now_ns () in
  let rec loop j =
    let due = Int64.add t0 (Int64.of_float (float j *. period)) in
    if Int64.compare due t_end < 0 then begin
      sleep_until due;
      Option.iter (churn_unsubscribe ch) ch.live;
      let subscriber = Inputs.subscriber ~n:(Array.length ch.cw.churn) ch.k in
      let expr = Pf_xpath.Parser.to_string ch.cw.churn.(ch.k mod Array.length ch.cw.churn) in
      let t = now_ns () in
      let ack =
        match C.subscribe ch.ccl ~subscriber expr with
        | Ok (id, suppressed) -> [ B.Subscribed { id; suppressed } ]
        | Error error -> [ B.Failed { error } ]
      in
      ch.lat <- ms_since t :: ch.lat;
      ch.history <- (B.Subscribe { ns = "churn"; subscriber; expr }, ack) :: ch.history;
      ch.k <- ch.k + 1;
      ch.live <- (match ack with [ B.Subscribed { id; _ } ] -> Some id | _ -> None);
      loop (j + 1)
    end
  in
  try loop 0 with C.Disconnected m -> error r ("churn connection: " ^ m)

(* Replay the churn history on the oracle; every acknowledgement must
   match, and a failed mutation counts as failed. *)
let check_churn (r : result) (o : oracle) history =
  List.iter
    (fun (cmd, ack) ->
      r.attempted <- r.attempted + 1;
      (match ack with [ B.Failed _ ] -> r.failed <- r.failed + 1 | _ -> ());
      if B.apply o.ob cmd <> ack then
        error r (Format.asprintf "churn %a acknowledged differently from the in-process broker" B.pp_command cmd))
    history

let setup_trial ~broker (w : Inputs.t) =
  let r = result () in
  let dir = fresh_dir "setup" in
  start_slices ();
  let c, cl, setup_s = setup r ~broker ~dir w ~check:None in
  let raw_setup_s = setup_s in
  let setup_s = setup_s *. factor () in
  publish_window r cl w ~first:0 ~n:(min Inproc.rss_docs (Array.length w.docs)) ~check:None;
  metric r "setup_s" setup_s;
  info r "raw_setup_s" (Printf.sprintf "%.4f" raw_setup_s);
  metric r "peak_rss_mb" (peak_rss_mb ~pid:(string_of_int c.pid) ());
  C.close cl;
  stop c Sys.sigterm;
  rm_rf dir;
  r

let restarts = 15

let timed_run ~broker (w : Inputs.t) ~seconds =
  let r = result () in
  let o = oracle w in
  let dir = fresh_dir "run" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c, cl, _ = setup r ~broker ~dir w ~check:(Some o) in
  let check = Some o in
  publish_window r cl w ~first:0 ~n:(Array.length w.docs) ~check;
  let docs_per_s = closed_loop r cl w ~seconds:(Inproc.closed_share *. seconds) ~check in
  C.close cl;
  let ch =
    { ccl = connect ~ns:"churn" c; cw = w; k = 0; live = None; lat = []; history = [] }
  in
  let ol = open_loop r c w ~seconds:((1. -. Inproc.closed_share) *. seconds) ~o ~beside:(churn r ch) in
  (try Option.iter (churn_unsubscribe ch) ch.live with C.Disconnected m -> error r ("churn connection: " ^ m));
  C.close ch.ccl;
  let history = List.rev ch.history in
  check_churn r o history;
  (* crash recovery: SIGKILL, restart over the same directory, time to
     the first answered publish (scaled by the probes around it); the
     recovered broker must answer exactly as before *)
  let c = ref c in
  let recovery =
    Array.init restarts (fun _ ->
        start_slices ();
        stop !c Sys.sigkill;
        let t0 = now_ns () in
        c := spawn ~broker ~dir;
        let cl = connect !c in
        r.attempted <- r.attempted + 1;
        (match C.publish cl w.docs.(0) with
        | Ok ds when ds = o.deliveries.(0) -> ()
        | Ok _ -> error r "first publish after recovery differs from the in-process broker"
        | Error _ -> r.failed <- r.failed + 1);
        let s = s_since t0 in
        C.close cl;
        s, s *. factor ())
  in
  let cl = connect !c in
  publish_window r cl w ~first:0 ~n:(Array.length w.docs) ~check;
  C.close cl;
  stop !c Sys.sigterm;
  metric r "docs_per_s" docs_per_s;
  let nd = Array.length w.docs in
  metric r "latency_p50_ms" (Inproc.latency_quantile 0.5 nd ol.scaled_ms);
  metric r "latency_p90_ms" (Inproc.latency_quantile 0.9 nd ol.scaled_ms);
  info r "raw_latency_p50_ms" (Printf.sprintf "%.3f" (Inproc.latency_quantile 0.5 nd ol.latency_ms));
  info r "raw_latency_p90_ms" (Printf.sprintf "%.3f" (Inproc.latency_quantile 0.9 nd ol.latency_ms));
  info r "subscribe_p50_ms" (Printf.sprintf "%.4f" (median (Array.of_list ch.lat)));
  metric r "recovery_s" (median (Array.map snd recovery));
  info r "raw_recovery_s" (Printf.sprintf "%.4f" (median (Array.map fst recovery)));
  metric r "loadgen.late_p99_ms" (quantile 0.99 ol.late_ms);
  info r "open_loop_sends" (string_of_int (Array.length ol.latency_ms));
  info r "churn_mutations" (string_of_int (List.length history));
  r
