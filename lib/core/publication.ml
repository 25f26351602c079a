type tuple = {
  mutable tag : Symbol.t;
  pos : int;
  mutable occurrence : int;
  mutable attrs : (string * string) list;
}

type t = {
  mutable length : int;
  tuples : tuple array;
  structure : int array;
  mutable pos_index : (int, int) Hashtbl.t option;
      (* packed (tag, occurrence) -> pos, built on first lookup *)
}

let of_path (p : Pf_xml.Path.t) =
  let n = Array.length p.Pf_xml.Path.steps in
  let tuples =
    Array.mapi
      (fun i (s : Pf_xml.Path.step) ->
        { tag = s.sym; pos = i + 1; occurrence = s.occurrence; attrs = s.attrs })
      p.Pf_xml.Path.steps
  in
  { length = n; tuples; structure = Pf_xml.Path.structure p; pos_index = None }

let of_tags tags = of_path (Pf_xml.Path.of_tags tags)

(* ------------------------------------------------------------------ *)
(* Streaming publication arena: one tuple record per depth and one
   structure array, shared by a single publication whose [length] bounds
   the prefix in use, so converting a streamed step stack into the
   paper's tuple set allocates nothing in the steady state and the arena
   holds O(depth) words. *)

type arena = { mutable pub : t (* replaced, never shrunk, when a deeper path arrives *) }

let create_arena () = { pub = of_tags [] }

let ensure_arena ar n =
  let old = ar.pub.tuples in
  if n > Array.length old then begin
    let cap = max 16 (max n (2 * Array.length old)) in
    ar.pub <-
      {
        length = 0;
        tuples =
          Array.init cap (fun i ->
              if i < Array.length old then old.(i)
              else { tag = 0; pos = i + 1; occurrence = 0; attrs = [] });
        structure = Array.make cap 0;
        pos_index = None;
      }
  end

let of_steps ar (steps : Pf_xml.Path.step array) n =
  ensure_arena ar n;
  let pub = ar.pub in
  for i = 0 to n - 1 do
    let s = steps.(i) in
    let tu = pub.tuples.(i) in
    tu.tag <- s.Pf_xml.Path.sym;
    tu.occurrence <- s.Pf_xml.Path.occurrence;
    tu.attrs <- s.Pf_xml.Path.attrs;
    pub.structure.(i) <- s.Pf_xml.Path.child_index
  done;
  pub.length <- n;
  (* the lazy (tag, occurrence) -> pos index of the previous path is
     stale now *)
  pub.pos_index <- None;
  pub

(* Occurrence numbers are bounded by the path length; 31 bits each keep
   (tag, occurrence) injective for any path shorter than 2^31 (the same
   bound the predicate index's pair packing relies on). *)
let pos_key tag occurrence = (tag lsl 31) lor occurrence

let pos_of_occurrence t ~tag ~occurrence =
  let index =
    match t.pos_index with
    | Some index -> index
    | None ->
      let index = Hashtbl.create (2 * t.length) in
      for i = 0 to t.length - 1 do
        let tu = t.tuples.(i) in
        Hashtbl.replace index (pos_key tu.tag tu.occurrence) tu.pos
      done;
      t.pos_index <- Some index;
      index
  in
  Hashtbl.find_opt index (pos_key tag occurrence)

let attrs_at t ~pos = t.tuples.(pos - 1).attrs

let pp fmt t =
  Format.fprintf fmt "@[<h>(length,%d)" t.length;
  for i = 0 to t.length - 1 do
    let tu = t.tuples.(i) in
    Format.fprintf fmt ", (%s^%d,%d)" (Symbol.name tu.tag) tu.occurrence tu.pos
  done;
  Format.fprintf fmt "@]"
