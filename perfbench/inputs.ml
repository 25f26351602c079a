(* The three workloads: every input comes from a Pf_workload generator
   seeded by the benchmark's --seed, so one seed gives one input set and
   the program under test sees only the generated documents and XPEs. *)

open Pf_workload

type kind = Nitf_distinct | Deep_stream | Broker_churn

let names =
  [
    "nitf-distinct", Nitf_distinct;
    "deep-stream", Deep_stream;
    "broker-churn", Broker_churn;
  ]

let kind_of_name n = List.assoc_opt n names

type t = {
  kind : kind;
  exprs : Pf_xpath.Ast.path array;  (* registered before any document, in order *)
  churn : Pf_xpath.Ast.path array;  (* broker-churn: subscribed and cancelled while the run goes on *)
  docs : string array;  (* serialized documents; runs cycle over them *)
  rate : float;  (* open-loop documents per second *)
  expected : Digest.t array;  (* per document, the reference match set's fingerprint ([||] until computed) *)
}

(* Closed-loop documents in flight. *)
let window = 16

(* Open-loop rates, set near a fifth of the docs_per_s (at the nominal
   host speed, one worker domain) this benchmark measured when it was
   written, so that even in a slow spell of the host (the probe up to
   1.8x its nominal time) the service stays below two fifths loaded,
   where queueing adds little and latency scales with the host's speed
   as the probe does: a speed-up shows as lower latency, a slow-down as
   a growing backlog. They are constants: changing one changes the
   benchmark. *)
let rate = function
  | Nitf_distinct -> 20.
  | Deep_stream -> 12.
  | Broker_churn -> 50.

(* Subscribe/cancel churn beside the broker's open loop, in pairs per
   second: the write:read mix of the broker-soak CI preset (pf-load -n
   2000 --churn 100 --docs 6000, i.e. 2100 mutations for 6000 published
   documents) at broker-churn's open-loop rate, 8.75 pairs/s. *)
let soak_mutations_per_publish = 2100. /. 6000.
let churn_rate = rate Broker_churn *. soak_mutations_per_publish /. 2.

(* Subscriber names as pf-load gives them: ten subscriptions per
   subscriber, over a set of [n]. *)
let subscriber ~n i = Printf.sprintf "user-%d" (i mod max 1 (n / 10))

(* Closed-loop bursts: a quarter second of documents at the open-loop
   rate, and at least a window. *)
let burst kind = max window (int_of_float (rate kind /. 4.))

(* The filter each in-process workload runs in Pf_service; broker-churn
   runs the pf-broker binary's default engine instead. *)
let filter = function
  | Nitf_distinct | Broker_churn -> (Pf_core.Engine.filter () :> Pf_intf.filter)
  | Deep_stream -> (Pf_core.Engine.filter ~stream:Pf_core.Engine.Stream () :> Pf_intf.filter)

let nitf_dtd = Dtd.nitf_like ()

(* Distinct NITF XPEs in three shares: plain paper queries, then small
   shares with one attribute filter and with nested path filters. Dedup
   across the shares keeps the set distinct. *)
let nitf_exprs ~seed n =
  let gen count p = Xpath_gen.generate nitf_dtd { p with Xpath_gen.count } in
  let base = { Presets.paper_queries with Xpath_gen.seed } in
  let attr = n * 3 / 100 and nested = n * 2 / 100 in
  let all =
    gen (n - attr - nested) base
    @ gen attr { base with filters_per_path = 1; seed = seed + 1 }
    @ gen nested { base with nested_prob = 0.3; seed = seed + 2 }
  in
  let seen = Hashtbl.create n in
  List.filter
    (fun q ->
      let k = Pf_xpath.Parser.to_string q in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    all
  |> Array.of_list

(* A stratified sample of [n] out of [strata * n] generated items:
   sorted by [key], the middle one of every [strata] consecutive is kept,
   so the sample has the generator's distribution of [key] and one seed's
   sample costs about what another's does. Item k of the result is the
   (37k mod n)-th smallest kept (37 is prime, so n must not be a multiple
   of it), so the order mixes small and large. *)
let strata = 4

let stratified ~key n generated =
  assert (n mod 37 <> 0 && List.length generated = strata * n);
  let keyed = Array.of_list (List.map (fun x -> key x, x) generated) in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) keyed;
  Array.init n (fun k -> snd keyed.((strata * (37 * k mod n)) + (strata / 2)))

(* NITF documents, stratified by size: enough that the open loop makes
   whole passes over them within half a run at the lowest rate. *)
let nitf_docs_count = 48

let nitf_docs ~seed n =
  Xml_gen.generate_many nitf_dtd { Presets.nitf_documents with Xml_gen.seed } (strata * n)
  |> List.map (Pf_xml.Print.to_string ~decl:false)
  |> stratified ~key:String.length n

(* deep-stream: a recursive 50-tag DTD whose every element may hold every
   other, so fan-out 1 derivations are chains of exactly [max_levels]
   random tags, and XPE random walks over the same graph match some of
   them. The XPEs are stratified by their number of descendant steps: on
   deep documents the predicate stage's cost grows with every [//] (one
   five-[//] XPE can cost more than the other 299 together), so an
   unstratified set's cost swings with how many such XPEs a seed drew. *)
let deep_tags = List.init 50 (Printf.sprintf "t%d")

let descendant_steps q =
  let s = Pf_xpath.Parser.to_string q in
  let n = ref 0 in
  String.iteri (fun i c -> if c = '/' && i + 1 < String.length s && s.[i + 1] = '/' then incr n) s;
  !n, String.length s

let deep_dtd =
  Dtd.make ~root:"t0"
    (List.map (fun name -> { Dtd.name; children = deep_tags; attrs = [ "k", 3 ] }) deep_tags)

(* The document mix spans [min_depth, max_depth] in [deep_docs] even
   steps, so latency quantiles fall on a smooth range of costs, not on
   the edge between two depth modes. [publication.retained_mb] is
   reported at both ends. *)
let min_depth = 1000
let max_depth = 2000
let deep_docs_count = 32
let comb_tooth_every = 250

(* A comb: the chain with a one-element tooth hung off every
   [comb_tooth_every]-th spine element (the tooth repeats the next spine
   tag, so the vocabulary is the generator's). Each tooth adds one
   root-to-leaf path as deep as its spine element. *)
let comb (d : Pf_xml.Tree.t) =
  let open Pf_xml.Tree in
  let rec go level (e : element) =
    let children =
      List.map (function Element c -> Element (go (level + 1) c) | n -> n) e.children
    in
    let children =
      match children with
      | Element next :: _ when level mod comb_tooth_every = 0 ->
        Element (element ~attrs:next.attrs next.tag) :: children
      | _ -> children
    in
    { e with children }
  in
  { root = go 1 d.root }

(* Every fourth document is a comb, the rest chains, each from its own
   seed. Document k has depth step (7k mod 32): the order interleaves
   shallow and deep, so no stretch of the open loop holds only the
   deepest. *)
let deep_docs ~seed =
  List.init deep_docs_count (fun k ->
      let step = 7 * k mod deep_docs_count in
      let depth = min_depth + (step * (max_depth - min_depth) / (deep_docs_count - 1)) in
      let d =
        Xml_gen.generate deep_dtd
          { Xml_gen.default with max_levels = depth; max_fanout = 1; seed = seed + k }
      in
      if k mod 4 = 3 then comb d else d)
  |> List.map (Pf_xml.Print.to_string ~decl:false)
  |> Array.of_list

let make kind ~seed =
  let exprs, churn, docs =
    match kind with
    | Nitf_distinct -> nitf_exprs ~seed 20_000, [||], nitf_docs ~seed nitf_docs_count
    | Deep_stream ->
      ( Xpath_gen.generate deep_dtd { Presets.paper_queries with Xpath_gen.count = strata * 300; seed }
        |> stratified ~key:descendant_steps 300,
        [||],
        deep_docs ~seed )
    | Broker_churn -> nitf_exprs ~seed 3_000, nitf_exprs ~seed:(seed + 7) 2_000, nitf_docs ~seed nitf_docs_count
  in
  { kind; exprs; churn; docs; rate = rate kind; expected = [||] }

(* A match set's fingerprint: the reference sets are kept as these, so
   they cost no memory in the processes that measure. *)
let fingerprint (sids : int list) = Digest.string (Marshal.to_string sids [ Marshal.No_sharing ])

(* Inputs are generated once per run, in a process of their own, and
   handed to the measured phases as a file: no phase's peak memory holds
   the generators' garbage. *)
let save path (w : t) = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc w [])
let load path : t = In_channel.with_open_bin path Marshal.from_channel

