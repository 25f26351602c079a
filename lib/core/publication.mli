(** Publications: the tuple encoding of document paths (Section 3.3).

    A document path [e = (t1, ..., tn)] becomes the tuple set
    [(length, n), (t1, 1), ..., (tn, n)], with each tag annotated with its
    per-path {e occurrence number} (the paper's superscripts: how many times
    the tag name has already appeared in this path). Tags are carried as
    interned {!Symbol.t}s, so the predicate matching loop indexes arrays
    instead of hashing strings. Attributes are kept on each tuple for
    attribute-predicate evaluation, and the structure tuple
    [<m1, ..., mn>] of Section 5 is carried along for nested path
    matching. *)

type tuple = {
  mutable tag : Symbol.t;  (** interned tag name *)
  pos : int;  (** 1-based position in the path *)
  mutable occurrence : int;  (** 1-based occurrence number of [tag] in the path *)
  mutable attrs : (string * string) list;
}
(** Fields are mutable {e only} so the streaming {!arena} can refill its
    records in place; {!of_path} and {!of_tags} build fresh tuples that
    are never mutated afterwards and are safe to retain. *)

type t = {
  mutable length : int;
      (** mutable only so the streaming {!arena} can reuse one publication
          for every path *)
  tuples : tuple array;
      (** in position order; [tuples.(i).pos = i + 1]. Only the first
          [length] entries belong to the publication: an {!arena}
          publication's array is longer. Iterate to [length], never to
          [Array.length tuples]. *)
  structure : int array;  (** the structure tuple [<m1, ..., mn>]; same bound *)
  mutable pos_index : (int, int) Hashtbl.t option;
      (** packed [(tag, occurrence)] -> [pos], built lazily by
          {!pos_of_occurrence}; [None] until the first lookup *)
}

val of_path : Pf_xml.Path.t -> t

val of_tags : string list -> t
(** Convenience for tests, mirroring the paper's examples
    (e.g. [of_tags ["a";"b";"c";"a";"b";"c"]]). *)

type arena
(** Reusable publication storage for the fully streaming match path: one
    tuple record per depth and one structure array, shared by a single
    publication whose [length] is set per path, so a step stack streamed
    out of {!Pf_xml.Path.stream} becomes a publication with zero
    allocation once the arena is warm, and the arena holds O(depth)
    words after a path of that depth. Not domain-safe; use one arena per
    engine. *)

val create_arena : unit -> arena

val of_steps : arena -> Pf_xml.Path.step array -> int -> t
(** [of_steps ar steps n] refills the arena's publication from
    [steps.(0 .. n - 1)] (tag symbol, occurrence, attributes, child index),
    sets its [length] to [n] and returns it. The returned publication —
    length, tuples, structure array and lazy position index included — is
    overwritten by the next call and must not be retained; the attribute
    lists and strings it points at are immutable and safely shared. *)

val pos_of_occurrence : t -> tag:Symbol.t -> occurrence:int -> int option
(** Position of the [occurrence]-th occurrence of [tag], if any — the
    inverse annotation used to map occurrence chains back to depths.
    The first call builds a hashed [(tag, occurrence)] -> [pos] index on
    the publication; subsequent lookups are O(1). *)

val attrs_at : t -> pos:int -> (string * string) list

val pp : Format.formatter -> t -> unit
