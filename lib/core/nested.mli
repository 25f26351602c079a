(** Nested path filters (Section 5).

    A nested path expression (tree pattern) is decomposed into a {e main}
    sub-expression and {e extended} sub-expressions: for each nested filter
    [\[q\]] on step [k], the extended sub-expression is the main path's
    prefix up to step [k] followed by [q]'s steps, with a branch-position
    predicate [(pos,=,k)] recording where it forks; decomposition recurses
    when nested filters themselves contain nested paths (the paper's
    two-level example [/a\[*/c\[d\]/e\]//c\[d\]/e]).

    Sub-expressions are encoded as ordered predicate sets interned in the
    {e shared} predicate index — overlap with single-path expressions and
    between sub-expressions is exploited exactly as in the basic engine.

    Per document, each sub-expression's occurrence chains are collected per
    path; chains locate the document {e node} bound to each branch step
    (identified by depth plus the structure-tuple prefix [<m_1, ..., m_d>]
    of Section 5 — two paths pass through the same node iff their structure
    tuples agree up to its depth). Bottom-up combination then requires, for
    every extended sub-expression, a match binding its branch step to the
    same node as the parent's.

    Semantics note: nested filters are existential (standard XPath) — a
    child match may lie on the same root-to-leaf path as the parent match.
    The paper's example prose suggests extended matches must "show a
    difference after" the branch; that reading would make [a\[b/c\]/b/c]
    unsatisfiable on a single-branch document, contradicting XPath, so we
    follow XPath (the reference evaluator agrees).

    Unsupported (raises {!Encoder.Unsupported} at {!add} time): nested
    filters attached to wildcard steps (no tag variable locates the branch
    node). *)

type t

val create : Predicate_index.t -> t

val add : t -> sid:int -> Pf_xpath.Ast.path -> unit
(** Decompose and register a nested path expression. The path must contain
    at least one nested filter ({!Pf_xpath.Ast.is_single_path} is false);
    single paths belong in the main pipeline. The whole decomposition is
    validated before anything is registered, so a raising [add] leaves the
    filter and the shared predicate index unchanged. *)

val remove : t -> sid:int -> bool
(** Unregister a nested expression. Returns false if [sid] is unknown.
    Its sub-expressions are retired: no later path or document visits
    them, and they are dropped from the registry once retired ones are
    the majority. Interned predicates stay (they are shared). *)

val is_empty : t -> bool
val expression_count : t -> int

val sub_expression_count : t -> int
(** Sub-expressions of the registered (not removed) expressions. *)

(** {1 Per-document matching protocol}

    The engine drives one document as:
    [begin_document]; for each path: run the predicate index, then
    [observe_path]; finally [finish_document]. *)

val begin_document : t -> unit

val observe_path : t -> Predicate_index.results -> Publication.t -> unit
(** Record, for every sub-expression, the occurrence chains the current
    path admits (using the predicate matching results just produced for
    it). *)

val finish_document : t -> on_match:(int -> unit) -> unit
(** Combine observations bottom-up and report each matched nested
    expression's sid once. *)
