(** The pre-rewrite, list-slot predicate index — a test-only reference.

    This is the predicate index as it stood before the cache-flat rewrite
    of {!Pf_core.Predicate_index}: per-operator vectors of pid lists
    indexed by predicate value, per-symbol hashtables for relative
    dispatch, and the all-pairs relative loop. It is kept verbatim
    (modulo two micro-cleanups the rewrite subsumed, and pair packing
    widened to 31-bit fields with the flat index's) so equivalence
    properties can check the flat implementation
    against it — same pids, same occurrence pairs in the same order, same
    probe/hit counter totals — under random predicate sets, documents and
    re-interning churn. Not exported outside the test universe; never use
    it on a hot path. *)

type pid = int

type metrics = { probes : Pf_obs.Counter.t; hits : Pf_obs.Counter.t }

val make_metrics : ?registry:Pf_obs.Registry.t -> unit -> metrics

type t

val create : ?metrics:metrics -> unit -> t
val intern : t -> Pf_core.Predicate.t -> pid
val find : t -> Pf_core.Predicate.t -> pid option
val predicate : t -> pid -> Pf_core.Predicate.t
val size : t -> int

type results

val create_results : unit -> results
val run : t -> results -> Pf_core.Publication.t -> unit

val get : results -> pid -> (int * int) list
(** Pairs newest-first, like {!Pf_core.Predicate_index.get}. *)

val get_packed : results -> pid -> int list
val iter_pairs : results -> pid -> (int -> unit) -> unit
val is_matched : results -> pid -> bool
val matched_count : results -> int
val pack : int -> int -> int
val packed_first : int -> int
val packed_second : int -> int
