(** Expression organizations (Section 4.2.2).

    Expressions are registered as ordered pid sequences; after the predicate
    matching stage, {!eval} reports every structurally matched expression.
    Four organizations trade off how many occurrence determination runs they
    need:

    - {!Basic}: a flat list; every expression whose predicates all matched
      gets its own occurrence determination run.
    - {!Prefix_covering}: expressions share a trie over pid sequences;
      within a covering chain the longest expression is evaluated first and
      a match covers all its prefixes (which are then not evaluated).
    - {!Access_predicate}: prefix covering plus clustering — a trie subtree
      is skipped entirely when its entry predicate (the {e access
      predicate}; at the root this is the paper's first-predicate
      clustering) has no matching result.
    - {!Shared}: our ablation extension — instead of per-expression
      backtracking runs, sets of reachable chain endings (occurrence
      numbers) are propagated down the trie once, so the work of the
      occurrence determination itself is shared across expressions with
      common prefixes.

    The three trie variants match over a flat image of the trie: its
    nodes numbered breadth-first into a few int arrays, so each node's
    children are one contiguous id range and a dead child costs one stamp
    read. Subtrees holding no registered expression are left out. The
    image is rebuilt on the first {!eval} after an {!add} that creates a
    trie node or fills a node left out; other adds and every {!remove}
    update it in place. *)

type variant = Basic | Prefix_covering | Access_predicate | Shared

val variant_name : variant -> string
(** ["basic"], ["basic-pc"], ["basic-pc-ap"], ["shared"] — the paper's
    algorithm labels. *)

val variant_of_name : string -> variant option

type metrics = {
  runs : Pf_obs.Counter.t;  (** occurrence determination runs *)
  steps : Pf_obs.Counter.t;  (** backtracking search steps *)
  cover_skips : Pf_obs.Counter.t;
      (** expressions reported through prefix covering without a run *)
  access_skips : Pf_obs.Counter.t;
      (** subtrees/clusters skipped on a dead access predicate *)
  rows_filled : Pf_obs.Counter.t;
      (** candidate rows copied into the occurrence arena; the trie
          variants copy a row only when a run needs it *)
  rebuilds : Pf_obs.Counter.t;
      (** rebuilds of the trie variants' flat image (one per {!eval}
          after a structural change) *)
  chain_len : Pf_obs.Histogram.t;  (** chain length per run *)
}

val make_metrics : ?registry:Pf_obs.Registry.t -> unit -> metrics
(** Counters named ["occurrence_runs"], ["backtrack_steps"],
    ["prefix_cover_skips"], ["access_skips"], ["occurrence_rows_filled"],
    ["expr_image_rebuilds"] and the ["chain_length"] histogram, registered
    in [registry] when given. *)

type t

val create : ?metrics:metrics -> variant -> t
(** [metrics] defaults to fresh unregistered counters, so a standalone
    index still counts but exports nothing. *)

val add : t -> sid:int -> pids:int array -> unit
(** Register expression [sid] with its ordered predicate ids (non-empty).
    Duplicate pid sequences share all per-expression structure in the trie
    variants. *)

val remove : t -> sid:int -> pids:int array -> bool
(** Unregister an expression; [pids] must be the sequence it was added
    with. Returns false if it was not (or no longer) registered. Constant
    time in the number of expressions (a tombstone for {!Basic}, a sid-list
    removal along one trie path otherwise); interned predicates are not
    reclaimed, and a trie subtree left without expressions is dropped from
    the match image at its next rebuild. *)

val eval :
  t -> Predicate_index.results -> sticky:bool -> doc_tag:int -> on_match:(int -> unit) -> unit
(** Report each structurally matched sid exactly once for this publication.
    [on_match] receives sids in an unspecified order. The flags are plain
    labelled arguments (not optional): optional arguments box a [Some] per
    call, and [eval] runs once per document path on the streaming fast
    path. Pass [~sticky:false ~doc_tag:0] when stickiness is unused.

    [sticky]/[doc_tag] (trie variants): a document is many publications;
    when [sticky] is true, a node whose sids were already reported under
    the same [doc_tag] is neither re-reported nor re-evaluated on the
    document's later paths, making per-document collection linear in the
    number of matched expressions rather than paths × expressions. Only
    sound when [on_match] accepts unconditionally (the engine's inline
    mode; with postponed attribute checks a later path may succeed where
    an earlier one failed). *)

val expression_count : t -> int
val node_count : t -> int
(** Trie nodes (= stored expressions for {!Basic}); an indicator of the
    sharing achieved. *)

val occurrence_runs : t -> int
(** Cumulative number of occurrence determination runs performed by
    {!eval} since creation — the quantity the Section 4.2.2 optimizations
    minimize (0 for {!Shared}). Reads the ["occurrence_runs"] counter of
    the metrics record, so it always agrees with the exported value and
    is zeroed by a registry reset. *)
