type step = {
  mutable tag : string;
  mutable sym : Symbol.t;
  mutable attrs : (string * string) list;
  mutable occurrence : int;
  mutable child_index : int;
}

type t = { steps : step array }

let length t = Array.length t.steps

let tags t = Array.to_list (Array.map (fun s -> s.tag) t.steps)

let structure t = Array.map (fun s -> s.child_index) t.steps

let dummy_step = { tag = ""; sym = 0; attrs = []; occurrence = 0; child_index = 0 }

(* Occurrence numbers are computed as the path is extended: [counts.(sym)]
   is how many times the tag already occurred on the current root-to-node
   path. Counts are decremented on the way back up, so one array serves the
   whole traversal — and because tags are interned to dense symbols the
   bookkeeping is a bounds-checked array access, not a string hash. *)
type counter = { mutable counts : int array }

let make_counter () = { counts = Array.make 64 0 }

let bump c sym =
  if sym >= Array.length c.counts then begin
    let bigger = Array.make (max (sym + 1) (2 * Array.length c.counts)) 0 in
    Array.blit c.counts 0 bigger 0 (Array.length c.counts);
    c.counts <- bigger
  end;
  let n = c.counts.(sym) + 1 in
  c.counts.(sym) <- n;
  n

let unbump c sym = c.counts.(sym) <- c.counts.(sym) - 1

(* Append the #text pseudo-attribute, keeping it last. Same cell count as
   [attrs @ [ "#text", txt ]] but in one pass. *)
let rec attrs_with_text attrs txt =
  match attrs with
  | [] -> [ ("#text", txt) ]
  | a :: tl -> a :: attrs_with_text tl txt

let of_document (doc : Tree.t) : t list =
  let counter = make_counter () in
  (* steps of the path currently being walked, indexed by depth; each leaf
     snapshots its prefix with one Array.sub — no per-leaf list append,
     reverse or of_list *)
  let scratch = ref (Array.make 16 dummy_step) in
  let paths = ref [] in
  let rec walk (e : Tree.element) child_index depth =
    let sym = Symbol.intern e.Tree.tag in
    let occurrence = bump counter sym in
    (* text content rides along as the reserved pseudo-attribute #text, so
       text() filters evaluate through the ordinary attribute machinery *)
    let attrs =
      match Tree.text_content e with
      | "" -> e.Tree.attrs
      | txt -> attrs_with_text e.Tree.attrs txt
    in
    if depth >= Array.length !scratch then begin
      let bigger = Array.make (2 * Array.length !scratch) dummy_step in
      Array.blit !scratch 0 bigger 0 (Array.length !scratch);
      scratch := bigger
    end;
    !scratch.(depth) <- { tag = e.Tree.tag; sym; attrs; occurrence; child_index };
    (match Tree.element_children e with
    | [] -> paths := { steps = Array.sub !scratch 0 (depth + 1) } :: !paths
    | children -> List.iteri (fun i c -> walk c (i + 1) (depth + 1)) children);
    unbump counter sym
  in
  walk doc.Tree.root 1 0;
  List.rev !paths

(* ------------------------------------------------------------------ *)
(* Streaming extraction over the zero-copy SAX driver.

   All per-element state lives in a reusable arena indexed by depth: two
   owned step records (the element as opened, and its #text-augmented
   form) whose fields are overwritten in place, a byte-array text
   accumulator, and the running element-child count. The emitted path is
   a per-depth cached record whose steps array is overwritten in place.
   Two bounded pools make even a stream of {e distinct} documents
   allocation-free once warm: trimmed text spans are canonicalized to
   shared strings, and the #text-augmented attribute lists are memoized
   per (attribute list, text) pair — together with the SAX driver's
   attribute-list cache, a steady-state document is extracted with zero
   per-element and per-path allocation. *)

let pool_bound = 2048

let pool_cap = 4096 (* power of two, = 2 * pool_bound *)

type scan_cell = {
  sc_base : step;  (* owned; fields overwritten at element open (no #text) *)
  sc_final : step;  (* owned; the #text-augmented form *)
  mutable sc_fin_attrs : (string * string) list;  (* attrs [sc_final] derives from *)
  mutable sc_fin_txt : string;  (* canonical text [sc_final] carries; "" = invalid *)
  mutable sc_text : Bytes.t;  (* immediate text seen so far *)
  mutable sc_text_len : int;
  mutable sc_children : int;  (* element children seen so far *)
}

(* #text-augmented attribute lists, memoized per (attrs, text) identity
   pair. Both keys are canonical instances (the SAX attr cache and the
   text pool), so physical equality is the right comparison; an instance
   recreated after a cache reset merely costs a duplicate entry. *)
type fin_entry = {
  fe_attrs : (string * string) list;  (* key: the attrs instance *)
  fe_txt : string;  (* key: the canonical text instance; "" = empty slot *)
  fe_list : (string * string) list;  (* fe_attrs with ("#text", fe_txt) last *)
}

let fe_empty = { fe_attrs = []; fe_txt = ""; fe_list = [] }

type scanner = {
  sk_counter : counter;
  mutable sk_cells : scan_cell array;
  mutable sk_ncells : int;  (* cells initialized *)
  mutable sk_depth : int;
  mutable sk_emit : step array;  (* [stream]'s shared emission buffer *)
  mutable sk_emit_paths : t array;
      (* [scan]'s reusable path record per length ([sk_emit_paths.(d)] has
         d+1 steps), created on the first path of that length *)
  (* bounded span -> canonical-string pool for trimmed element text *)
  sk_txt_keys : string array;  (* pool_cap slots; "" = empty *)
  mutable sk_txt_size : int;
  (* bounded (attrs, text) -> #text-augmented attrs pool *)
  sk_fin_table : fin_entry array;  (* pool_cap slots *)
  mutable sk_fin_size : int;
}

let create_scanner () =
  {
    sk_counter = make_counter ();
    sk_cells = [||];
    sk_ncells = 0;
    sk_depth = 0;
    sk_emit = [||];
    sk_emit_paths = [||];
    sk_txt_keys = Array.make pool_cap "";
    sk_txt_size = 0;
    sk_fin_table = Array.make pool_cap fe_empty;
    sk_fin_size = 0;
  }

let new_step () = { tag = ""; sym = 0; attrs = []; occurrence = 0; child_index = 0 }

let ensure_cell sk d =
  if d >= Array.length sk.sk_cells then begin
    let cap = max 16 (max (d + 1) (2 * Array.length sk.sk_cells)) in
    let fresh_cell () =
      {
        sc_base = new_step ();
        sc_final = new_step ();
        sc_fin_attrs = [];
        sc_fin_txt = "";
        sc_text = Bytes.create 16;
        sc_text_len = 0;
        sc_children = 0;
      }
    in
    let bigger = Array.init cap (fun i ->
        if i < sk.sk_ncells then sk.sk_cells.(i) else fresh_cell ())
    in
    sk.sk_cells <- bigger;
    sk.sk_ncells <- cap
  end

let grow arr n fill =
  let bigger = Array.make (max 16 (max n (2 * Array.length arr))) fill in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let ensure_emit sk d =
  if d >= Array.length sk.sk_emit then sk.sk_emit <- grow sk.sk_emit (d + 1) dummy_step

let no_path = { steps = [||] }

(* [scan]'s length-[n] path record, refilled from [stream]'s buffer *)
let emit_path sk steps n =
  if n > Array.length sk.sk_emit_paths then sk.sk_emit_paths <- grow sk.sk_emit_paths n no_path;
  let p = sk.sk_emit_paths.(n - 1) in
  let p =
    if Array.length p.steps = n then p
    else begin
      let p = { steps = Array.make n dummy_step } in
      sk.sk_emit_paths.(n - 1) <- p;
      p
    end
  in
  Array.blit steps 0 p.steps 0 n;
  p

(* FNV-1a over a substring, as in Symbol's read cache. The pool helpers
   are top-level tail recursions, not local closures or refs — they run
   per emitted step and must not allocate on a hit. *)
let rec hash_span_loop s i stop h =
  if i = stop then h
  else
    hash_span_loop s (i + 1) stop
      ((h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0x3FFFFFFF)

let hash_span s pos len = hash_span_loop s pos (pos + len) 0x811c9dc5

let rec span_eq_from key s pos i len =
  i = len
  || (String.unsafe_get key i = String.unsafe_get s (pos + i)
     && span_eq_from key s pos (i + 1) len)

let span_eq key s pos len = String.length key = len && span_eq_from key s pos 0 len

(* Slot holding the span's canonical string, or the empty slot for it. *)
let rec txt_find sk s pos len i =
  let k = sk.sk_txt_keys.(i) in
  if String.length k = 0 || span_eq k s pos len then i
  else txt_find sk s pos len ((i + 1) land (pool_cap - 1))

(* Canonical shared string for a (non-empty) text span: zero allocation
   on a pool hit. The pool resets wholesale at [pool_bound] entries. *)
let text_pool_get sk s pos len =
  let h = hash_span s pos len in
  let slot = txt_find sk s pos len (h land (pool_cap - 1)) in
  let k = sk.sk_txt_keys.(slot) in
  if String.length k > 0 then k
  else begin
    let slot =
      if sk.sk_txt_size >= pool_bound then begin
        Array.fill sk.sk_txt_keys 0 pool_cap "";
        sk.sk_txt_size <- 0;
        h land (pool_cap - 1)
      end
      else slot
    in
    let fresh = String.sub s pos len in
    sk.sk_txt_keys.(slot) <- fresh;
    sk.sk_txt_size <- sk.sk_txt_size + 1;
    fresh
  end

(* Slot holding the (attrs, txt) entry, or the empty slot for it. Both
   keys are canonical instances, so physical equality is the comparison. *)
let rec fin_find sk attrs txt i =
  let e = sk.sk_fin_table.(i) in
  if String.length e.fe_txt = 0 || (e.fe_txt == txt && e.fe_attrs == attrs) then i
  else fin_find sk attrs txt ((i + 1) land (pool_cap - 1))

let fin_pool_get sk attrs txt =
  (* [txt] is canonical, so hashing its contents is stable; the attrs
     instance cannot be hashed — same-text different-attrs entries
     resolve by probing *)
  let h = hash_span txt 0 (String.length txt) in
  let slot = fin_find sk attrs txt (h land (pool_cap - 1)) in
  let e = sk.sk_fin_table.(slot) in
  if String.length e.fe_txt > 0 then e.fe_list
  else begin
    let slot =
      if sk.sk_fin_size >= pool_bound then begin
        Array.fill sk.sk_fin_table 0 pool_cap fe_empty;
        sk.sk_fin_size <- 0;
        h land (pool_cap - 1)
      end
      else slot
    in
    let list = attrs_with_text attrs txt in
    sk.sk_fin_table.(slot) <- { fe_attrs = attrs; fe_txt = txt; fe_list = list };
    sk.sk_fin_size <- sk.sk_fin_size + 1;
    list
  end

(* Mirrors [String.trim]'s whitespace set. *)
let is_trim_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let rec trim_lo b i hi =
  if i < hi && is_trim_space (Bytes.unsafe_get b i) then trim_lo b (i + 1) hi else i

let rec trim_hi b lo i =
  if i > lo && is_trim_space (Bytes.unsafe_get b (i - 1)) then trim_hi b lo (i - 1) else i

(* The step for depth [i] as it should appear in an emitted path: the base
   step, augmented with the (trimmed) text accumulated so far. For
   ancestors with mixed content this covers only the text preceding the
   branch point — text() on non-leaf steps is best-effort in streaming
   mode (see the interface). *)
let finalize_cell sk cell =
  if cell.sc_text_len = 0 then cell.sc_base
  else begin
    let b = cell.sc_text in
    let lo = trim_lo b 0 cell.sc_text_len in
    let hi = trim_hi b lo cell.sc_text_len in
    if hi = lo then cell.sc_base
    else begin
      let txt = text_pool_get sk (Bytes.unsafe_to_string b) lo (hi - lo) in
      let base = cell.sc_base in
      if not (cell.sc_fin_txt == txt && cell.sc_fin_attrs == base.attrs) then begin
        cell.sc_final.attrs <- fin_pool_get sk base.attrs txt;
        cell.sc_fin_attrs <- base.attrs;
        cell.sc_fin_txt <- txt
      end;
      let fin = cell.sc_final in
      fin.tag <- base.tag;
      fin.sym <- base.sym;
      fin.occurrence <- base.occurrence;
      fin.child_index <- base.child_index;
      fin
    end
  end

let stream_body sk src ~f =
  (* a previous scan that raised mid-document leaves stale state behind;
     start from a clean slate *)
  if sk.sk_depth <> 0 then begin
    Array.fill sk.sk_counter.counts 0 (Array.length sk.sk_counter.counts) 0;
    sk.sk_depth <- 0
  end;
  (* document-level validation mirroring [Sax.parse_document]: exactly one
     root element, rejected at the same positions (end of input) so a
     streaming engine raises byte-identical errors to the tree oracle *)
  let seen_root = ref false in
  let doc_fail msg =
    raise (Sax.Parse_error (Sax.position_at src (String.length src), msg))
  in
  let zc_start sym attrs =
    let d = sk.sk_depth in
    if d = 0 && !seen_root then doc_fail "content after the root element";
    ensure_cell sk d;
    let cell = sk.sk_cells.(d) in
    let child_index =
      if d = 0 then 1
      else begin
        let parent = sk.sk_cells.(d - 1) in
        parent.sc_children <- parent.sc_children + 1;
        parent.sc_children
      end
    in
    let base = cell.sc_base in
    base.tag <- Symbol.name sym;
    base.sym <- sym;
    base.attrs <- attrs;
    base.occurrence <- bump sk.sk_counter sym;
    base.child_index <- child_index;
    cell.sc_text_len <- 0;
    cell.sc_children <- 0;
    sk.sk_depth <- d + 1
  in
  let zc_text s pos len =
    if sk.sk_depth > 0 then begin
      let cell = sk.sk_cells.(sk.sk_depth - 1) in
      let need = cell.sc_text_len + len in
      if need > Bytes.length cell.sc_text then begin
        let cap = ref (2 * Bytes.length cell.sc_text) in
        while need > !cap do
          cap := 2 * !cap
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit cell.sc_text 0 bigger 0 cell.sc_text_len;
        cell.sc_text <- bigger
      end;
      Bytes.blit_string s pos cell.sc_text cell.sc_text_len len;
      cell.sc_text_len <- need
    end
  in
  let zc_end _sym =
    let d = sk.sk_depth - 1 in
    let cell = sk.sk_cells.(d) in
    if cell.sc_children = 0 then begin
      ensure_emit sk d;
      let out = sk.sk_emit in
      for i = 0 to d do
        out.(i) <- finalize_cell sk sk.sk_cells.(i)
      done;
      f out (d + 1)
    end;
    unbump sk.sk_counter cell.sc_base.sym;
    sk.sk_depth <- d;
    if d = 0 then seen_root := true
  in
  Sax.fold_zc src { Sax.zc_start; zc_end; zc_text };
  if not !seen_root then doc_fail "no root element"

(* The lowest-level driver: no span of its own, the matching layers wrap
   it (the engine's fully streaming mode records a "stream-match" span
   covering the whole fused parse+match drive). *)
let stream sk src ~f = stream_body sk src ~f

(* [scan] hands out a per-length path record, so its steps array has
   exactly the path's length; one blit from [stream]'s buffer fills it. *)
let scan_body sk src ~f = stream_body sk src ~f:(fun steps n -> f (emit_path sk steps n))

(* In the streaming pipeline parse and path scan are fused — fold_zc
   drives the scanner directly — so one "scan" span covers both. *)
let scan sk src ~f = Pf_obs.Trace.with_span "scan" (fun () -> scan_body sk src ~f)

let scan_string src ~f = scan (create_scanner ()) src ~f

let copy_step (s : step) =
  {
    tag = s.tag;
    sym = s.sym;
    attrs = s.attrs;
    occurrence = s.occurrence;
    child_index = s.child_index;
  }

let fold_of_string src ~init ~f =
  let acc = ref init in
  (* the scanner overwrites the emitted records in place; snapshot them
     (attribute lists and strings are immutable and safely shared) *)
  scan_string src ~f:(fun p -> acc := f !acc { steps = Array.map copy_step p.steps });
  !acc

let of_string src =
  List.rev (fold_of_string src ~init:[] ~f:(fun acc p -> p :: acc))

let of_tags tag_list =
  let counter = make_counter () in
  let steps =
    List.map
      (fun tag ->
        let sym = Symbol.intern tag in
        { tag; sym; attrs = []; occurrence = bump counter sym; child_index = 1 })
      tag_list
  in
  { steps = Array.of_list steps }

let pp fmt t =
  Format.fprintf fmt "@[<h>";
  Array.iteri
    (fun i s ->
      if i > 0 then Format.pp_print_string fmt "/";
      Format.fprintf fmt "%s^%d" s.tag s.occurrence)
    t.steps;
  Format.fprintf fmt "@]"
