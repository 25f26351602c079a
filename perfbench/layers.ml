(* The traced run: the workload's seeded inputs replayed through each
   layer's public calls, one layer at a time, with spans recorded around
   every call from this file (nothing inside lib/ is instrumented beyond
   the engine's existing stage spans and counters). Every layer runs on
   every workload; where a workload does not use a layer itself (the
   broker on nitf-distinct, subsumption everywhere) the layer sees a
   sample of the workload's XPEs, [sample] of them.

   Ledger: on nitf-distinct and deep-stream the self times of sax, path,
   publication, predicate, occurrence and collect must add up to
   engine.ns_per_doc within [ledger_tolerance], or the run fails. *)

open Measure
module E = Pf_core.Engine
module B = Pf_broker.Broker
module T = Pf_obs.Trace

let sample = 2000
let ledger_tolerance = 0.2
let reps = 3

let ns_per n total = total /. float (max 1 n)
let counter reg name = float (Option.value ~default:0 (Pf_obs.Registry.find_counter reg name))

(* A default engine that records stage timings and remembers its last
   answer, so the subsumption wrapper's raw (physical) match sets can be
   read from outside. *)
let last_physical = ref []

module Spy = struct
  type t = E.t

  let create () =
    E.create ~collect_stats:true ()

  let add = E.add
  let add_string = E.add_string
  let remove = E.remove

  let match_document t d =
    let r = E.match_document t d in
    last_physical := r;
    r

  let match_string t s =
    let r = E.match_string t s in
    last_physical := r;
    r

  let match_batch t ds = List.map (match_document t) ds
  let match_string_batch t ss = List.map (match_string t) ss
  let metrics = E.metrics
end

module Sub = Pf_core.Subsume.Make (Spy)

(* Spans: one trace per document, one span per layer call, kept in a
   collector; a layer's per-document time is its summed span durations
   over the pass. [span_passes] takes the median of [reps] passes and
   keeps the last pass's collector for the Chrome export. *)
let span_pass nd layers =
  let col = T.create () in
  for i = 0 to nd - 1 do
    let ctx = T.start ~label:(Printf.sprintf "doc %d" i) col in
    List.iter (fun (name, f) -> T.span ctx name (fun () -> f i)) layers;
    T.finish ctx
  done;
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (tr : T.trace) ->
      List.iter
        (fun (sp : T.span) ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt totals sp.sp_name) in
          Hashtbl.replace totals sp.sp_name (prev +. Int64.to_float sp.sp_dur_ns))
        tr.tr_spans)
    (T.traces col);
  col, fun name -> Option.value ~default:0. (Hashtbl.find_opt totals name) /. float nd

let span_passes nd layers =
  let passes = List.init reps (fun _ -> span_pass nd layers) in
  ( fst (List.nth passes (reps - 1)),
    fun name -> median (Array.of_list (List.map (fun (_, p) -> p name) passes)) )

(* Live heap held by a publication arena after streaming one document
   through it. *)
let retained_mb doc =
  let sk = Pf_xml.Path.create_scanner () in
  let ar = Pf_core.Publication.create_arena () in
  Gc.full_major ();
  let live0 = (Gc.stat ()).live_words in
  Pf_xml.Path.stream sk doc ~f:(fun st n -> ignore (Pf_core.Publication.of_steps ar st n));
  Gc.full_major ();
  let live1 = (Gc.stat ()).live_words in
  ignore (Sys.opaque_identity (sk, ar));
  float (live1 - live0) *. 8. /. 1e6

let depth doc =
  let d = ref 0 in
  Pf_xml.Path.stream (Pf_xml.Path.create_scanner ()) doc ~f:(fun _ n -> d := max !d n);
  !d

let traced_run ~broker (w : Inputs.t) ~seconds =
  let r = result () in
  let docs = w.docs and nd = Array.length w.docs in
  let stream = w.kind = Inputs.Deep_stream in
  let attempt ok = r.attempted <- r.attempted + 1; if not ok then r.failed <- r.failed + 1 in
  (* encoder and engine registration *)
  metric r "encoder.ns_per_expr"
    (median_pass_ns (fun q -> try Some (Pf_core.Encoder.encode q) with Pf_intf.Unsupported _ -> None) w.exprs);
  let eng = Spy.create () in
  let t0 = now_ns () in
  Array.iter (fun q -> try ignore (E.add eng q) with Pf_intf.Unsupported _ -> ()) w.exprs;
  metric r "engine.add_ns_per_expr" (ns_per (Array.length w.exprs) (Int64.to_float (Int64.sub (now_ns ()) t0)));
  metric r "predicate_index.distinct_predicates" (float (E.distinct_predicate_count eng));
  (* subsumption: logical XPEs in, physical shapes to the engine *)
  let sub_exprs = Array.sub w.exprs 0 (min sample (Array.length w.exprs)) in
  let sub = Sub.create () in
  let t0 = now_ns () in
  Array.iter (fun q -> try ignore (Sub.add sub q) with Pf_intf.Unsupported _ -> ()) sub_exprs;
  metric r "subsume.add_ns_per_expr" (ns_per (Array.length sub_exprs) (Int64.to_float (Int64.sub (now_ns ()) t0)));
  let st = Sub.stats sub in
  metric r "subsume.physical_over_logical" (float st.shapes /. float (max 1 st.logical));
  let physical = Array.map (fun d -> ignore (Sub.match_string sub d); !last_physical) docs in
  metric r "subsume.fanout_ns_per_doc" (median_pass_ns (Sub.fan_out sub) physical);
  (* the engine whose stages the ledger splits, and an untraced twin *)
  let traced_engine = eng and plain_engine = E.create () in
  Array.iter (fun q -> try ignore (E.add plain_engine q) with Pf_intf.Unsupported _ -> ()) w.exprs;
  let engine_match e = if stream then E.match_stream e else E.match_string e in
  (* ingest layers, each call in its own span *)
  let sk = Pf_xml.Path.create_scanner () and ar = Pf_core.Publication.create_arena () in
  let paths_n = ref 0 and steps_n = ref 0 in
  let count_path n = incr paths_n; steps_n := !steps_n + n in
  let noop = { Pf_xml.Sax.zc_start = (fun _ _ -> ()); zc_end = ignore; zc_text = (fun _ _ _ -> ()) } in
  let trees = if stream then [||] else Array.map Pf_xml.Sax.parse_document docs in
  let paths = Array.map Pf_xml.Path.of_document trees in
  let events0 = counter Pf_xml.Sax.metrics "events" in
  let collected, layer =
    if stream then
      span_passes nd
        [
          "sax", (fun i -> Pf_xml.Sax.fold_zc docs.(i) noop);
          "sax+path", (fun i -> Pf_xml.Path.stream sk docs.(i) ~f:(fun _ n -> count_path n));
          ( "sax+path+publication",
            fun i ->
              Pf_xml.Path.stream sk docs.(i) ~f:(fun s n ->
                  ignore (Sys.opaque_identity (Pf_core.Publication.of_steps ar s n))) );
        ]
    else begin
      for _ = 1 to reps do
        Array.iter (List.iter (fun p -> count_path (Pf_xml.Path.length p))) paths
      done;
      span_passes nd
        [
          "sax", (fun i -> ignore (Sys.opaque_identity (Pf_xml.Sax.parse_document docs.(i))));
          "path", (fun i -> ignore (Sys.opaque_identity (Pf_xml.Path.of_document trees.(i))));
          ( "publication",
            fun i -> ignore (Sys.opaque_identity (List.map Pf_core.Publication.of_path paths.(i))) );
        ]
    end
  in
  let events_per_pass = if stream then 3 else 1 in
  metric r "sax.events_per_doc"
    ((counter Pf_xml.Sax.metrics "events" -. events0) /. float (reps * nd * events_per_pass));
  let per_doc_count n = float n /. float (reps * nd) in
  metric r "path.paths_per_doc" (per_doc_count !paths_n);
  metric r "path.steps_per_doc" (per_doc_count !steps_n);
  let sax_ns, path_ns, pub_ns =
    if stream then
      let s = layer "sax" and sp = layer "sax+path" and spp = layer "sax+path+publication" in
      s, sp -. s, spp -. sp
    else layer "sax", layer "path", layer "publication"
  in
  metric r "sax.ns_per_doc" sax_ns;
  metric r "path.ns_per_doc" path_ns;
  metric r "publication.ns_per_doc" pub_ns;
  let by_depth = Array.map (fun d -> depth d, d) docs in
  Array.sort (fun (a, _) (b, _) -> compare b a) by_depth;
  let deepest, deep_doc = by_depth.(0) in
  let _, half_doc =
    Array.fold_left
      (fun (bd, bdoc) (d, doc) -> if abs (d - deepest / 2) < abs (bd - deepest / 2) then d, doc else bd, bdoc)
      by_depth.(0) by_depth
  in
  metric r "publication.retained_mb" (retained_mb deep_doc);
  metric r "publication.retained_mb_half_depth" (retained_mb half_doc);
  (* engine: traced (stage spans on) and plain, median of [reps] passes *)
  let reg = E.metrics traced_engine in
  let engine_pass () =
    E.reset_stats traced_engine;
    let g0 = Gc.minor_words () in
    let matches = ref 0 in
    let t0 = now_ns () in
    Array.iter (fun d -> matches := !matches + List.length (engine_match traced_engine d)) docs;
    let total = Int64.to_float (Int64.sub (now_ns ()) t0) in
    let s = E.stats traced_engine in
    let c name = counter reg name /. float nd in
    ( total /. float nd,
      [
        "predicate.ns_per_doc", s.predicate_ns /. float nd;
        "occurrence.ns_per_doc", s.expr_ns /. float nd;
        "engine.collect_ns_per_doc", s.collect_ns /. float nd;
        "predicate.probes_per_doc", c "predicate_probes";
        "predicate.hits_per_doc", c "predicate_hits";
        "occurrence.runs_per_doc", c "occurrence_runs";
        "occurrence.backtrack_steps_per_doc", c "backtrack_steps";
        "occurrence.skips_per_doc", c "prefix_cover_skips" +. c "access_skips";
        "occurrence.useful_ratio", float !matches /. Float.max 1. (counter reg "occurrence_runs");
        "engine.matches_per_doc", float !matches /. float nd;
        "engine.minor_words_per_doc", (Gc.minor_words () -. g0) /. float nd;
      ] )
  in
  (* traced and plain passes alternate, so heap growth and background
     load fall on both alike *)
  let gc0 = Gc.quick_stat () in
  let plain_passes = Array.make reps 0. in
  let passes =
    Array.init reps (fun i ->
        let p = engine_pass () in
        plain_passes.(i) <- pass_ns (engine_match plain_engine) docs /. float nd;
        p)
  in
  let gc1 = Gc.quick_stat () in
  Array.sort (fun (a, _) (b, _) -> compare a b) passes;
  let engine_ns, stages = passes.(reps / 2) in
  let plain_ns = median plain_passes in
  metric r "engine.ns_per_doc" engine_ns;
  List.iter (fun (k, v) -> metric r k v) stages;
  let runs = float (2 * reps * nd) in
  metric r "gc.minor_words_per_doc" ((gc1.minor_words -. gc0.minor_words) /. runs);
  metric r "gc.major_words_per_doc" ((gc1.major_words -. gc0.major_words) /. runs);
  metric r "gc.top_heap_mb" (float gc1.top_heap_words *. 8. /. 1e6);
  metric r "trace.overhead_share" ((engine_ns -. plain_ns) /. plain_ns);
  (* the ledger *)
  let stage k = List.assoc k stages in
  let parts =
    [
      "sax", sax_ns; "path", path_ns; "publication", pub_ns;
      "predicate", stage "predicate.ns_per_doc"; "occurrence", stage "occurrence.ns_per_doc";
      "collect", stage "engine.collect_ns_per_doc";
    ]
  in
  List.iter (fun (k, v) -> metric r (k ^ ".share") (v /. engine_ns)) parts;
  let residual = (engine_ns -. List.fold_left (fun a (_, v) -> a +. v) 0. parts) /. engine_ns in
  metric r "ledger.residual_share" residual;
  if (w.kind = Inputs.Nitf_distinct || stream) && Float.abs residual > ledger_tolerance then
    error r
      (Printf.sprintf "ledger does not close: layer self times leave %.0f%% of engine.ns_per_doc unaccounted"
         (100. *. residual));
  (* service: single in-flight, open loop, burst *)
  let svc = Pf_service.create ~domains:(Inproc.domains ()) (Inputs.filter w.kind) in
  Array.iter (fun q -> try ignore (Pf_service.subscribe svc q) with Pf_intf.Unsupported _ -> ()) w.exprs;
  let fl = Inproc.flight () in
  let single = Array.make nd 0. in
  for pass = 0 to 1 do
    Array.iteri
      (fun i _ ->
        let t0 = now_ns () in
        Inproc.submit r fl svc w true i ~on_done:ignore;
        Inproc.wait_below fl 1;
        if pass = 1 then single.(i) <- Int64.to_float (Int64.sub (now_ns ()) t0))
      docs
  done;
  let mean a = Array.fold_left ( +. ) 0. a /. float (Array.length a) in
  metric r "service.overhead_ns_per_doc" (mean single -. plain_ns);
  let ol = Inproc.open_loop r fl svc w true ~seconds:(0.25 *. seconds) in
  metric r "service.queue_ms_p50" (median ol.latency_ms -. (median single /. 1e6));
  metric r "loadgen.late_p99_ms" (quantile 0.99 ol.late_ms);
  (* a burst three times the service's default queue capacity
     (4 * domains * batch 8), so backpressure and batching show *)
  for i = 0 to 3 * 4 * Pf_service.domains svc * 8 - 1 do
    Inproc.submit r fl svc w true i ~on_done:ignore
  done;
  Inproc.wait_below fl 1;
  Inproc.shutdown r svc;
  Inproc.check_flight r fl ~what:"service layer";
  let sreg = Pf_service.metrics svc in
  metric r "service.submit_waits" (counter sreg "submit_waits");
  metric r "service.queue_high_water" (Option.value ~default:0. (Pf_obs.Registry.find_gauge sreg "queue_high_water"));
  metric r "service.batched_share" (counter sreg "batched_documents" /. Float.max 1. (counter sreg "documents"));
  (* broker: Broker.apply on an in-process copy of the subscription set *)
  let bexprs =
    if w.kind = Inputs.Broker_churn then w.exprs else Array.sub w.exprs 0 (min sample (Array.length w.exprs))
  in
  let bcmds =
    Array.mapi
      (fun i q ->
        B.Subscribe
          { ns = ""; subscriber = Inputs.subscriber ~n:(Array.length bexprs) i; expr = Pf_xpath.Parser.to_string q })
      bexprs
  in
  let b = B.create () in
  let sub_ns = per_call_ns (B.apply b) bcmds in
  metric r "broker.subscribe_ns" sub_ns;
  metric r "broker.suppressed_share" (float (B.stats b).suppressed /. float (max 1 (B.stats b).subscriptions));
  let pubs = Array.map (fun doc -> B.Publish { ns = ""; doc }) docs in
  let publish_ns = per_call_ns (B.apply b) pubs in
  metric r "broker.publish_ns" publish_ns;
  let deliveries =
    Array.map (fun c -> match B.apply b c with [ B.Delivered { deliveries } ] -> deliveries | _ -> []) pubs
  in
  metric r "broker.deliveries_per_publish"
    (mean (Array.map (fun ds -> float (List.length ds)) deliveries));
  (* wal and store, in the checkout's run directory *)
  let dir = Brokerrun.fresh_dir "trace" in
  Fun.protect ~finally:(fun () -> Brokerrun.rm_rf dir) @@ fun () ->
  let wal, _ = Pf_net.Wal.open_log (Filename.concat dir "w.wal") in
  let k = min 200 (Array.length bcmds) in
  let size0 = Pf_net.Wal.size wal in
  let app = Array.make k 0. and sync = Array.make k 0. in
  for i = 0 to k - 1 do
    let t0 = now_ns () in
    ignore (Pf_net.Wal.append wal bcmds.(i));
    let t1 = now_ns () in
    Pf_net.Wal.sync wal;
    app.(i) <- Int64.to_float (Int64.sub t1 t0);
    sync.(i) <- Int64.to_float (Int64.sub (now_ns ()) t1)
  done;
  metric r "wal.append_ns" (median app);
  metric r "wal.fsync_ns" (median sync);
  metric r "wal.bytes_per_mutation" (float (Pf_net.Wal.size wal - size0) /. float k);
  Pf_net.Wal.close wal;
  let sdir = Filename.concat dir "store" in
  let store = Pf_net.Store.open_store ~snapshot_every:max_int ~dir:sdir B.create in
  Array.iter (fun c -> ignore (Pf_net.Store.log store c)) bcmds;
  let t0 = now_ns () in
  Pf_net.Store.snapshot_now store;
  metric r "store.snapshot_ms" (ms_since t0);
  Pf_net.Store.close store;
  let t0 = now_ns () in
  let store = Pf_net.Store.open_store ~snapshot_every:max_int ~dir:sdir B.create in
  metric r "store.recover_ms" (ms_since t0);
  attempt ((B.stats (Pf_net.Store.broker store)).subscriptions = Array.length bcmds);
  Pf_net.Store.close store;
  (* wire *)
  let frame msg = let buf = Buffer.create 256 in Pf_net.Wire.encode buf ~req_id:1 msg; buf in
  let pub_msgs = Array.map (fun c -> Pf_net.Wire.Command c) pubs in
  let res_msgs = Array.map (fun ds -> Pf_net.Wire.Event (B.Delivered { deliveries = ds })) deliveries in
  metric r "wire.encode_ns" (per_call_ns frame pub_msgs);
  let frames = Array.map (fun m -> Buffer.to_bytes (frame m)) pub_msgs in
  metric r "wire.decode_ns" (per_call_ns (fun f -> Pf_net.Wire.decode f ~off:0 ~len:(Bytes.length f)) frames);
  metric r "wire.bytes_per_publish" (mean (Array.map (fun f -> float (Bytes.length f)) frames));
  metric r "wire.bytes_per_result" (mean (Array.map (fun m -> float (Buffer.length (frame m))) res_msgs));
  (* net: single in-flight round trips to a pf-broker child holding the
     same subscriptions; deliveries must equal the in-process broker's *)
  let c = Brokerrun.spawn ~broker ~dir in
  Fun.protect ~finally:(fun () -> Brokerrun.stop c Sys.sigterm) @@ fun () ->
  let cl = Brokerrun.connect c in
  Array.iteri
    (fun i q ->
      let subscriber = Inputs.subscriber ~n:(Array.length bexprs) i in
      attempt (Result.is_ok (Pf_net.Client.subscribe cl ~subscriber (Pf_xpath.Parser.to_string q))))
    bexprs;
  let rtt =
    Array.mapi
      (fun i doc ->
        let t0 = now_ns () in
        let res = Pf_net.Client.publish cl doc in
        let dt = Int64.to_float (Int64.sub (now_ns ()) t0) in
        attempt (Result.is_ok res);
        (match res with
        | Ok ds when ds <> deliveries.(i) -> error r (Printf.sprintf "document %d: pf-broker deliveries differ from the in-process broker" i)
        | _ -> ());
        dt)
      docs
  in
  Pf_net.Client.close cl;
  metric r "net.rtt_overhead_ns" (median rtt -. publish_ns);
  T.write_chrome collected
    (Printf.sprintf ".bench_run/trace-%s.json" (fst (List.find (fun (_, k) -> k = w.kind) Inputs.names)));
  r
