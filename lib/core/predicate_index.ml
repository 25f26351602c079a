type pid = int

(* Stage counters, typically registered in the owning engine's registry:
   [probes] counts candidate predicate inspections (arena slots visited by
   a run), [hits] the occurrence pairs recorded, [pair_visits] the tuple
   pairs the relative join walked. *)
type metrics = {
  probes : Pf_obs.Counter.t;
  hits : Pf_obs.Counter.t;
  pair_visits : Pf_obs.Counter.t;
}

let make_metrics ?registry () =
  {
    probes =
      Pf_obs.Counter.make ?registry "predicate_probes"
        ~help:"candidate predicates inspected during predicate matching";
    hits =
      Pf_obs.Counter.make ?registry "predicate_hits"
        ~help:"occurrence pairs recorded during predicate matching";
    pair_visits =
      Pf_obs.Counter.make ?registry "predicate_pair_visits"
        ~help:"tuple pairs walked by the relative-predicate join";
  }

let src = Pf_obs.Events.src "predicate_index" ~doc:"Predicate index interning"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Storage layout

   The index keeps two representations. The build side records, per pid,
   which of six logical tables the predicate belongs to plus its key
   symbols and value — cheap to append to, never read while matching. The
   match side is a flat image of contiguous int arrays rebuilt lazily
   (once per subscription change, not per document): per table a CSR
   layout of key rows over dense value columns over one shared pid arena,
   so the inner match loop is sequential array walks with no boxing, no
   hashing and no closures. *)

(* Logical tables. Every predicate lives in exactly one. *)
let tab_abs_eq = 0 (* Absolute, op = Eq; key = tag symbol *)
let tab_abs_ge = 1 (* Absolute, op = Ge *)
let tab_eop = 2 (* End_of_path (always >=); key = tag symbol *)
let tab_rel_eq = 3 (* Relative, op = Eq; key = dense (first,second) pair id *)
let tab_rel_ge = 4 (* Relative, op = Ge *)
let tab_length = 5 (* Length (always >=); single key 0 *)

(* One flattened table. [rows.(k)] is the first column of key [k]: row [k]
   spans columns [rows.(k) .. rows.(k+1)-1] and column [rows.(k) + v]
   holds exactly the pids stored under value [v] (dense value columns, so
   an Eq probe is a bounds check plus one contiguous slice). [starts] is
   globally cumulative over the columns, and columns of one row are
   consecutive in value order — a Ge probe over values [1..stop] is
   therefore the single slice
   [starts.(rows.(k)+1) .. starts.(rows.(k)+stop+1)] of [tpids]. *)
type table = {
  rows : int array; (* key -> first column; length nkeys+1 *)
  starts : int array; (* column -> first slot of tpids; length ncols+1 *)
  tpids : int array; (* flat pid arena, column-major *)
}

type flat = {
  nsym : int; (* symbol bound shared by every symbol-indexed array *)
  abs_eq : table;
  abs_ge : table;
  eop : table;
  rel_eq : table;
  rel_ge : table;
  len_tab : table;
  rel_row : int array;
      (* first symbol -> dense row index among relative predicates, -1 if
         no relative predicate names it; length nsym *)
  rel_pair : int array;
      (* row-major [row * nsym + second symbol] -> dense pair id, -1: one
         array read tells the relative join whether a (tuple, tag ahead)
         combination has any predicate, and which *)
  cmask : int array;
      (* packed per-pid constraint bitmap (32 bits per element): bit set
         iff the pid carries attribute constraints, so the unconstrained
         common case never touches the cons1/cons2 vectors *)
}

let empty_table = { rows = [| 0; 0 |]; starts = [| 0 |]; tpids = [||] }

let empty_flat =
  {
    nsym = 0;
    abs_eq = empty_table;
    abs_ge = empty_table;
    eop = empty_table;
    rel_eq = empty_table;
    rel_ge = empty_table;
    len_tab = empty_table;
    rel_row = [||];
    rel_pair = [||];
    cmask = [||];
  }

module Ptbl = Hashtbl.Make (struct
  type t = Predicate.t

  let equal = Predicate.equal
  let hash = Predicate.hash
end)

type t = {
  preds : Predicate.t Vec.t; (* pid -> predicate *)
  cons1 : Predicate.attr_constraint list Vec.t; (* pid -> first-var constraints *)
  cons2 : Predicate.attr_constraint list Vec.t;
  by_pred : pid Ptbl.t; (* structural dedup at intern time *)
  ptab : int Vec.t; (* pid -> logical table *)
  psym1 : int Vec.t; (* pid -> first key symbol (0 for Length) *)
  psym2 : int Vec.t; (* pid -> second key symbol (relative only) *)
  pval : int Vec.t; (* pid -> predicate value *)
  mutable dirty : bool; (* a new predicate invalidated the flat image *)
  mutable flat : flat;
  m : metrics;
}

let create ?metrics () =
  {
    preds = Vec.create ~dummy:(Predicate.Length { v = 0 }) ();
    cons1 = Vec.create ~dummy:[] ();
    cons2 = Vec.create ~dummy:[] ();
    by_pred = Ptbl.create 256;
    ptab = Vec.create ~dummy:0 ();
    psym1 = Vec.create ~dummy:0 ();
    psym2 = Vec.create ~dummy:0 ();
    pval = Vec.create ~dummy:0 ();
    (* dirty so the first run builds the (empty) flat image too *)
    dirty = true;
    flat = empty_flat;
    m = (match metrics with Some m -> m | None -> make_metrics ());
  }

let predicate t pid = Vec.get t.preds pid

let size t = Vec.length t.preds

let find t p = Ptbl.find_opt t.by_pred p

let intern t p =
  match Ptbl.find_opt t.by_pred p with
  | Some pid -> pid
  | None ->
    let pid = Vec.push t.preds p in
    Ptbl.add t.by_pred p pid;
    let c1, c2 = Predicate.constraints_of p in
    let (_ : int) = Vec.push t.cons1 c1 in
    let (_ : int) = Vec.push t.cons2 c2 in
    (* tag names are interned here, at expression-compile time; the match
       loop below only ever sees symbols *)
    let tab, s1, s2, v =
      match p with
      | Predicate.Absolute { tag; op = Predicate.Eq; v } ->
        tab_abs_eq, Symbol.intern tag.name, 0, v
      | Predicate.Absolute { tag; op = Predicate.Ge; v } ->
        tab_abs_ge, Symbol.intern tag.name, 0, v
      | Predicate.End_of_path { tag; v } -> tab_eop, Symbol.intern tag.name, 0, v
      | Predicate.Relative { first; second; op; v } ->
        ( (match op with Predicate.Eq -> tab_rel_eq | Predicate.Ge -> tab_rel_ge),
          Symbol.intern first.name,
          Symbol.intern second.name,
          v )
      | Predicate.Length { v } -> tab_length, 0, 0, v
    in
    let (_ : int) = Vec.push t.ptab tab in
    let (_ : int) = Vec.push t.psym1 s1 in
    let (_ : int) = Vec.push t.psym2 s2 in
    let (_ : int) = Vec.push t.pval v in
    t.dirty <- true;
    Log.debug (fun m -> m "interned pid %d: %a" pid Predicate.pp p);
    pid

(* ------------------------------------------------------------------ *)
(* Flat-image construction (cold path: once per subscription change) *)

let is_rel tab = tab = tab_rel_eq || tab = tab_rel_ge

let rebuild t =
  let n = Vec.length t.preds in
  let nsym = ref 0 in
  for pid = 0 to n - 1 do
    if Vec.get t.ptab pid <> tab_length then begin
      nsym := max !nsym (Vec.get t.psym1 pid + 1);
      nsym := max !nsym (Vec.get t.psym2 pid + 1)
    end
  done;
  let nsym = !nsym in
  (* dense rows for the first symbols of relative predicates, then dense
     pair ids for their (first, second) combinations *)
  let rel_row = Array.make (max nsym 1) (-1) in
  let nrows = ref 0 in
  for pid = 0 to n - 1 do
    if is_rel (Vec.get t.ptab pid) then begin
      let s1 = Vec.get t.psym1 pid in
      if rel_row.(s1) < 0 then begin
        rel_row.(s1) <- !nrows;
        incr nrows
      end
    end
  done;
  let rel_pair = Array.make (max 1 (!nrows * nsym)) (-1) in
  let npairs = ref 0 in
  for pid = 0 to n - 1 do
    if is_rel (Vec.get t.ptab pid) then begin
      let cell = (rel_row.(Vec.get t.psym1 pid) * nsym) + Vec.get t.psym2 pid in
      if rel_pair.(cell) < 0 then begin
        rel_pair.(cell) <- !npairs;
        incr npairs
      end
    end
  done;
  let npairs = !npairs in
  let key_of pid =
    let tab = Vec.get t.ptab pid in
    if tab = tab_length then 0
    else if is_rel tab then
      rel_pair.((rel_row.(Vec.get t.psym1 pid) * nsym) + Vec.get t.psym2 pid)
    else Vec.get t.psym1 pid
  in
  (* counting sort of one table's pids into its CSR image *)
  let build tab nkeys =
    let width = Array.make (max 1 nkeys) 0 in
    for pid = 0 to n - 1 do
      if Vec.get t.ptab pid = tab then begin
        let k = key_of pid in
        width.(k) <- max width.(k) (Vec.get t.pval pid + 1)
      end
    done;
    let rows = Array.make (nkeys + 1) 0 in
    for k = 0 to nkeys - 1 do
      rows.(k + 1) <- rows.(k) + width.(k)
    done;
    let ncols = rows.(nkeys) in
    let starts = Array.make (ncols + 1) 0 in
    for pid = 0 to n - 1 do
      if Vec.get t.ptab pid = tab then begin
        let col = rows.(key_of pid) + Vec.get t.pval pid in
        starts.(col + 1) <- starts.(col + 1) + 1
      end
    done;
    for c = 0 to ncols - 1 do
      starts.(c + 1) <- starts.(c) + starts.(c + 1)
    done;
    let tpids = Array.make (max 1 starts.(ncols)) 0 in
    let cursor = Array.copy starts in
    for pid = 0 to n - 1 do
      if Vec.get t.ptab pid = tab then begin
        let col = rows.(key_of pid) + Vec.get t.pval pid in
        tpids.(cursor.(col)) <- pid;
        cursor.(col) <- cursor.(col) + 1
      end
    done;
    { rows; starts; tpids }
  in
  let cmask = Array.make (max 1 ((n + 31) lsr 5)) 0 in
  for pid = 0 to n - 1 do
    if Vec.get t.cons1 pid <> [] || Vec.get t.cons2 pid <> [] then
      cmask.(pid lsr 5) <- cmask.(pid lsr 5) lor (1 lsl (pid land 31))
  done;
  t.flat <-
    {
      nsym;
      abs_eq = build tab_abs_eq nsym;
      abs_ge = build tab_abs_ge nsym;
      eop = build tab_eop nsym;
      rel_eq = build tab_rel_eq npairs;
      rel_ge = build tab_rel_ge npairs;
      len_tab = build tab_length 1;
      rel_row;
      rel_pair;
      cmask;
    };
  t.dirty <- false;
  Log.debug (fun m ->
      m "rebuilt flat image: %d predicates, %d symbols, %d relative pairs" n nsym
        npairs)

(* ------------------------------------------------------------------ *)
(* Predicate matching                                                   *)

(* Occurrence pairs are packed into single immediate ints ((o1 << 31) | o2)
   so the chain search compares unboxed ints. Occurrence numbers are
   bounded by the document path length; two 31-bit fields fit a 63-bit
   int, so any path shorter than 2^31 packs losslessly. *)
let pack o1 o2 = (o1 lsl 31) lor o2

let packed_first p = p lsr 31
let packed_second p = p land 0x7fff_ffff

(* Result pairs live in a flat cell arena reused across documents: cell [c]
   occupies slots [2c] (packed pair) and [2c+1] (index of the next cell of
   the same pid, -1 at the end). One [run] resets the arena with a cursor
   bump, so the steady state allocates nothing — no cons cell per pair, no
   list boxing, and traversal walks contiguous memory. *)
type results = {
  mutable epoch : int;
  mutable stamp : int array; (* pid -> epoch of last match *)
  mutable heads : int array; (* pid -> newest cell index (valid iff stamped) *)
  mutable cells : int array;
  mutable n_cells : int; (* cells used this epoch *)
  mutable matched : int; (* matched predicates this epoch *)
  mutable r_probes : int;
      (* [run]'s scratch counters — fields rather than refs so a run
         allocates nothing; flushed to the metrics once per run *)
  mutable r_hits : int;
  mutable r_visits : int;
  (* relative-join scratch, sized by [run_flat] *)
  mutable first : int array;
      (* symbol -> index of its next tuple not yet passed by the forward
         pass, -1 if none. Every entry is -1 between runs, so a run never
         clears it *)
  mutable nxt : int array; (* tuple index -> next index with the same tag, -1 *)
  mutable ahead : int array;
      (* stack of the distinct symbols with a tuple not yet passed; the
         symbol whose last tuple comes first is on top *)
}

let create_results () =
  {
    epoch = 0;
    stamp = [||];
    heads = [||];
    cells = [||];
    n_cells = 0;
    matched = 0;
    r_probes = 0;
    r_hits = 0;
    r_visits = 0;
    first = [||];
    nxt = [||];
    ahead = [||];
  }

let ensure_capacity res n =
  if Array.length res.stamp < n then begin
    let cap = max n (2 * Array.length res.stamp) in
    let stamp = Array.make cap 0 and heads = Array.make cap (-1) in
    Array.blit res.stamp 0 stamp 0 (Array.length res.stamp);
    Array.blit res.heads 0 heads 0 (Array.length res.heads);
    res.stamp <- stamp;
    res.heads <- heads
  end

let record res pid packed =
  let c = res.n_cells in
  if 2 * c + 1 >= Array.length res.cells then begin
    let bigger = Array.make (max 64 (2 * Array.length res.cells)) (-1) in
    Array.blit res.cells 0 bigger 0 (Array.length res.cells);
    res.cells <- bigger
  end;
  res.cells.(2 * c) <- packed;
  if res.stamp.(pid) = res.epoch then res.cells.((2 * c) + 1) <- res.heads.(pid)
  else begin
    res.stamp.(pid) <- res.epoch;
    res.cells.((2 * c) + 1) <- -1;
    res.matched <- res.matched + 1
  end;
  res.heads.(pid) <- c;
  res.n_cells <- c + 1

let is_matched res pid =
  pid < Array.length res.stamp && res.stamp.(pid) = res.epoch

let head res pid = if is_matched res pid then res.heads.(pid) else -1

let cells res = res.cells

let iter_pairs res pid f =
  if is_matched res pid then begin
    let cells = res.cells in
    let c = ref res.heads.(pid) in
    while !c >= 0 do
      f cells.(2 * !c);
      c := cells.((2 * !c) + 1)
    done
  end

let get_packed res pid =
  let acc = ref [] in
  iter_pairs res pid (fun p -> acc := p :: !acc);
  List.rev !acc

let get res pid =
  List.map (fun p -> packed_first p, packed_second p) (get_packed res pid)

let matched_count res = res.matched

(* Check the attribute constraints of [pid]'s first/second variable against
   tuple attributes. Only reached when the constraint bitmap says the pid
   is constrained, so one side is always non-empty. *)
let cons_ok t pid ~first ~second =
  (match Vec.get t.cons1 pid with
  | [] -> true
  | cs -> Predicate.check_constraints cs first)
  &&
  match Vec.get t.cons2 pid with
  | [] -> true
  | cs -> Predicate.check_constraints cs second

(* Visit one contiguous pid-arena slice: count each probe, gate the
   attribute-constraint check on the bitmap, record the packed pair on
   success. A top-level function rather than a closure inside [run_flat]'s
   loops — the slices execute per (tuple, value range) and a closure
   allocation there would dominate the whole match path's allocation (the
   loops themselves are allocation-free, so this keeps the streaming
   mode's steady state at zero words per path). Probe/hit tallies go to
   [res.r_probes]/[res.r_hits] — mutable scratch fields, not refs — and
   are flushed to the metrics once per run. *)
let visit t cmask tpids res first second packed lo hi =
  for s = lo to hi - 1 do
    let pid = tpids.(s) in
    res.r_probes <- res.r_probes + 1;
    if
      cmask.(pid lsr 5) land (1 lsl (pid land 31)) = 0
      || cons_ok t pid ~first ~second
    then begin
      res.r_hits <- res.r_hits + 1;
      record res pid packed
    end
  done

(* The largest tuple distance any predicate of relative pair [k] accepts:
   unbounded once it has a >= predicate (a row's width is its largest
   value plus one), else its largest = value. *)
let reach rel_eq rel_ge k =
  if rel_ge.rows.(k + 1) - rel_ge.rows.(k) > 1 then max_int
  else rel_eq.rows.(k + 1) - rel_eq.rows.(k) - 1

(* Match one publication against the current flat image. The caller has
   already reset the scratch counters and ensured the image is fresh.

   Relative predicates are a join over same-tag chains rather than a loop
   over every later tuple. A backward pass links each tuple to the next
   one with its tag ([nxt]), points [first] at each tag's first tuple and
   stacks the distinct tags present ([ahead]) as it meets their last
   tuples. The forward pass moves tuple [i] out of its own chain — after
   a tag's last tuple that pops the tag, which is on top because the
   stack was pushed in reverse order of last tuples — then, for each
   distinct tag still ahead that forms a stored pair with [i]'s tag,
   walks that tag's chain until the pair's reach.
   Per pid, pairs still arrive i-ascending then j-ascending — the order of
   the all-pairs loop this replaces — so match sets, pair order and
   probe/hit totals are unchanged. The work per tuple is the number of
   distinct tags ahead (never more than the tuples ahead) plus the pairs
   within reach, instead of every later tuple. *)
let run_flat t res (pub : Publication.t) =
  ensure_capacity res (Vec.length t.preds);
  res.epoch <- res.epoch + 1;
  res.n_cells <- 0;
  res.matched <- 0;
  let fl = t.flat in
  let cmask = fl.cmask in
  let l = pub.Publication.length in
  (* length-of-expression predicates: (length,>=,v) matches iff l >= v;
     the single row's columns are value-ascending, so values 1..stop are
     one contiguous slice (Length predicates never carry constraints, so
     the bitmap branch in [visit] always takes the fast side) *)
  let lt = fl.len_tab in
  let stop = min l (lt.rows.(1) - 1) in
  if stop >= 1 then
    visit t cmask lt.tpids res [] [] (pack 0 0) lt.starts.(1) lt.starts.(stop + 1);
  let tuples = pub.Publication.tuples in
  let nsym = fl.nsym in
  if Array.length res.first < nsym then begin
    res.first <- Array.make nsym (-1);
    res.ahead <- Array.make nsym 0
  end;
  if Array.length res.nxt < l then res.nxt <- Array.make (max l (2 * Array.length res.nxt)) (-1);
  let first = res.first and nxt = res.nxt and ahead = res.ahead in
  let n_ahead = ref 0 and visits = ref 0 in
  (* a symbol interned after the last rebuild cannot be named by any
     stored predicate, so it joins no chain *)
  for j = l - 1 downto 0 do
    let sym = tuples.(j).Publication.tag in
    if sym < nsym then begin
      if first.(sym) < 0 then begin
        ahead.(!n_ahead) <- sym;
        incr n_ahead
      end;
      nxt.(j) <- first.(sym);
      first.(sym) <- j
    end
  done;
  let abs_eq = fl.abs_eq and abs_ge = fl.abs_ge and eop = fl.eop in
  let rel_eq = fl.rel_eq and rel_ge = fl.rel_ge in
  let rel_row = fl.rel_row and rel_pair = fl.rel_pair in
  for i = 0 to l - 1 do
    let tu = tuples.(i) in
    let sym = tu.Publication.tag in
    if sym < nsym then begin
      (* chains now start after [i]; the last tuple of a tag leaves -1
         and pops the tag *)
      first.(sym) <- nxt.(i);
      if nxt.(i) < 0 then decr n_ahead;
      let o = tu.Publication.occurrence in
      let attrs = tu.Publication.attrs in
      let pos = tu.Publication.pos in
      let packed = pack o o in
      (* absolute =: the value must equal the tuple position *)
      let base = abs_eq.rows.(sym) in
      if pos < abs_eq.rows.(sym + 1) - base then begin
        let col = base + pos in
        visit t cmask abs_eq.tpids res attrs attrs packed abs_eq.starts.(col)
          abs_eq.starts.(col + 1)
      end;
      (* absolute >=: values 1..min(pos, width-1) — one slice *)
      let base = abs_ge.rows.(sym) in
      let stop = min pos (abs_ge.rows.(sym + 1) - base - 1) in
      if stop >= 1 then
        visit t cmask abs_ge.tpids res attrs attrs packed
          abs_ge.starts.(base + 1)
          abs_ge.starts.(base + stop + 1);
      (* end-of-path: (p_t-|,>=,v) matches iff l - pos >= v *)
      let base = eop.rows.(sym) in
      let stop = min (l - pos) (eop.rows.(sym + 1) - base - 1) in
      if stop >= 1 then
        visit t cmask eop.tpids res attrs attrs packed
          eop.starts.(base + 1)
          eop.starts.(base + stop + 1);
      (* relative predicates: walk the chain of each tag ahead that forms
         a stored pair with this one, nearest tuple first *)
      let r = rel_row.(sym) in
      if r >= 0 then
        for a = 0 to !n_ahead - 1 do
          let k = rel_pair.((r * nsym) + ahead.(a)) in
          if k >= 0 then begin
            let reach = reach rel_eq rel_ge k in
            let j = ref first.(ahead.(a)) in
            while !j >= 0 do
              let tu2 = tuples.(!j) in
              let d = tu2.Publication.pos - pos in
              if d > reach then j := -1
              else begin
                incr visits;
                let packed2 = pack o tu2.Publication.occurrence in
                let attrs2 = tu2.Publication.attrs in
                let base = rel_eq.rows.(k) in
                if d < rel_eq.rows.(k + 1) - base then begin
                  let col = base + d in
                  visit t cmask rel_eq.tpids res attrs attrs2 packed2
                    rel_eq.starts.(col)
                    rel_eq.starts.(col + 1)
                end;
                let base = rel_ge.rows.(k) in
                let stop = min d (rel_ge.rows.(k + 1) - base - 1) in
                if stop >= 1 then
                  visit t cmask rel_ge.tpids res attrs attrs2 packed2
                    rel_ge.starts.(base + 1)
                    rel_ge.starts.(base + stop + 1);
                j := nxt.(!j)
              end
            done
          end
        done
    end
  done;
  res.r_visits <- !visits

let run_one t res pub =
  res.r_probes <- 0;
  res.r_hits <- 0;
  run_flat t res pub;
  Pf_obs.Counter.add t.m.probes res.r_probes;
  Pf_obs.Counter.add t.m.hits res.r_hits;
  Pf_obs.Counter.add t.m.pair_visits res.r_visits

let run t res pub =
  if t.dirty then rebuild t;
  run_one t res pub

let run_batch t ress pubs =
  let n = Array.length pubs in
  if Array.length ress <> n then
    invalid_arg "Predicate_index.run_batch: results/publications length mismatch";
  (* one freshness check for the whole batch: the flat image stays hot in
     cache across the publications instead of alternating with downstream
     per-document work *)
  if t.dirty then rebuild t;
  for i = 0 to n - 1 do
    run_one t ress.(i) pubs.(i)
  done
