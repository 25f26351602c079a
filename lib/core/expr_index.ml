type variant = Basic | Prefix_covering | Access_predicate | Shared

let variant_name = function
  | Basic -> "basic"
  | Prefix_covering -> "basic-pc"
  | Access_predicate -> "basic-pc-ap"
  | Shared -> "shared"

let variant_of_name = function
  | "basic" -> Some Basic
  | "basic-pc" | "pc" -> Some Prefix_covering
  | "basic-pc-ap" | "pc-ap" | "ap" -> Some Access_predicate
  | "shared" -> Some Shared
  | _ -> None

(* The trie variants keep two forms of the same trie over pid sequences.
   The build side, touched only by [add]/[remove], is one int array with
   a fixed-width record per node id (creation order) plus the nodes' sid
   lists: children are sibling chains, and the child of a node by pid is
   found through one edge table. Nodes are never removed. The match side
   is a flat image of it (see [image]) that [eval] walks. *)

(* Fields of a build node's record in [t.bn]: its pid, the registered
   sids in its subtree ([live]; a subtree with none is left out of the
   image), its first child and next sibling (next root for roots; -1 for
   none), and its id in the image (valid only while [in_image]). Keeping
   a node's fields together (40 bytes) holds the rebuild's walk to about
   one cache miss a node, where an array per field took one per field. *)
let f_pid = 0
let f_live = 1
let f_first = 2
let f_next = 3
let f_img = 4
let width = 5

module Edges = Hashtbl.Make (Int)

(* The match side: the live part of the trie numbered breadth-first, so
   roots are ids [0, n_roots), each node's children are one contiguous id
   range [first_child.(i), first_child.(i + 1)), and ids ascend with depth
   (descending ids are a longest-first order). A dead child then costs the
   walk one stamp read inside its parent's child loop. Rebuilt by [eval]
   after a structural change ([dirty]); sid-list changes at nodes already
   in the image are read through [bid] and need no rebuild. The arrays
   are reused across rebuilds (ids [0, n) are valid; growth doubles):
   fresh arrays per rebuild, in the major heap at trie size, drove the
   major GC hard enough to cost more than the rebuild itself under
   subscription churn. *)
type image = {
  mutable n : int;
  mutable n_roots : int;
  mutable ipid : int array;
  mutable first_child : int array;  (* entries [0, n] *)
  mutable parent : int array;  (* -1 at roots *)
  mutable depth : int array;  (* 0 at roots *)
  mutable bid : int array;  (* build node id, for its sids *)
  mutable mark : int array;
      (* document tag of the last sticky sid report: a document has many
         paths, and once a node's sids are reported for one path they need
         not be re-reported for the document's remaining paths (valid only
         when on_match marks unconditionally, i.e. no postponed checks) *)
  mutable covered : int array;  (* prefix-covering mark, per eval pass *)
  (* a rebuild reads [bid]/[mark] while it writes their successors here,
     then swaps the two *)
  mutable next_bid : int array;
  mutable next_mark : int array;
  mutable queued : int;  (* rebuild queue length *)
}

let create_image () =
  {
    n = 0;
    n_roots = 0;
    ipid = [||];
    first_child = [||];
    parent = [||];
    depth = [||];
    bid = [||];
    mark = [||];
    covered = [||];
    next_bid = [||];
    next_mark = [||];
    queued = 0;
  }

(* Evaluation counters, typically registered in the owning engine's
   registry. [runs] is the quantity the Section 4.2.2 optimizations
   minimize; [cover_skips]/[access_skips] count how often prefix covering
   and access predicates avoided work; [chain_len] observes the predicate
   chain length of each occurrence determination run. *)
type metrics = {
  runs : Pf_obs.Counter.t;
  steps : Pf_obs.Counter.t;
  cover_skips : Pf_obs.Counter.t;
  access_skips : Pf_obs.Counter.t;
  rows_filled : Pf_obs.Counter.t;
  rebuilds : Pf_obs.Counter.t;
  chain_len : Pf_obs.Histogram.t;
}

let make_metrics ?registry () =
  {
    runs =
      Pf_obs.Counter.make ?registry "occurrence_runs"
        ~help:"occurrence determination runs";
    steps =
      Pf_obs.Counter.make ?registry "backtrack_steps"
        ~help:"nodes visited by the occurrence determination backtracking search";
    cover_skips =
      Pf_obs.Counter.make ?registry "prefix_cover_skips"
        ~help:"expressions reported through prefix covering without a run";
    access_skips =
      Pf_obs.Counter.make ?registry "access_skips"
        ~help:"trie subtrees skipped because their access predicate had no match";
    rows_filled =
      Pf_obs.Counter.make ?registry "occurrence_rows_filled"
        ~help:"candidate rows copied into the occurrence arena for runs";
    rebuilds =
      Pf_obs.Counter.make ?registry "expr_image_rebuilds"
        ~help:"rebuilds of the flat trie image after a structural change";
    chain_len =
      Pf_obs.Histogram.make ?registry "chain_length"
        ~help:"predicate chain length per occurrence determination run";
  }

type t = {
  variant : variant;
  (* Basic *)
  flat : (int * int array) Vec.t;  (* (sid, pids); removed entries have pids = [||] *)
  flat_pos : (int, int) Hashtbl.t;  (* sid -> index in [flat] *)
  (* trie variants, build side *)
  edges : int Edges.t;  (* [edge_key parent pid] -> child id *)
  mutable bn : int array;  (* [width] fields per node id *)
  b_sids : int list Vec.t;
  mutable first_root : int;
  (* the image [eval] walks *)
  img : image;
  mutable dirty : bool;  (* the image misses a node that now holds sids *)
  (* candidate-set scratch reused across documents (Occurrence arena);
     one per index — engine instances are single-domain *)
  arena : Occurrence.arena;
  (* the pid of the walk's node at each depth, and the watermark below
     which the arena's rows hold exactly those pids' results: rows are
     filled only when a run needs them *)
  mutable stack : int array;
  mutable valid : int;
  (* per-pass tallies, flushed into the counters once per [eval] *)
  mutable skips : int;
  mutable rows : int;
  mutable pc_epoch : int;
  mutable n_exprs : int;
  mutable n_nodes : int;
  m : metrics;
}

let create ?metrics variant =
  {
    variant;
    flat = Vec.create ~dummy:(0, [||]) ();
    flat_pos = Hashtbl.create 16;
    edges = Edges.create 256;
    bn = [||];
    b_sids = Vec.create ~dummy:[] ();
    first_root = -1;
    img = create_image ();
    dirty = false;
    arena = Occurrence.create_arena ();
    stack = [||];
    valid = 0;
    skips = 0;
    rows = 0;
    pc_epoch = 0;
    n_exprs = 0;
    n_nodes = 0;
    m = (match metrics with Some m -> m | None -> make_metrics ());
  }

(* Pids and node ids stay below 2^31 (the predicate index packs pids in
   31 bits), so one int keys an edge; roots hang off parent -1. *)
let edge_key parent pid = ((parent + 1) lsl 31) lor pid

let get t id f = t.bn.((id * width) + f)
let set t id f v = t.bn.((id * width) + f) <- v

let new_node t parent pid =
  let id = Vec.push t.b_sids [] in
  t.n_nodes <- t.n_nodes + 1;
  if (id + 1) * width > Array.length t.bn then begin
    let bn = Array.make (max (16 * width) (2 * Array.length t.bn)) 0 in
    Array.blit t.bn 0 bn 0 (Array.length t.bn);
    t.bn <- bn
  end;
  set t id f_pid pid;
  set t id f_live 0;
  set t id f_first (-1);
  set t id f_img (-1);
  if parent < 0 then begin
    set t id f_next t.first_root;
    t.first_root <- id
  end
  else begin
    set t id f_next (get t parent f_first);
    set t parent f_first id
  end;
  Edges.add t.edges (edge_key parent pid) id;
  id

let in_image t b =
  let i = get t b f_img in
  i >= 0 && i < t.img.n && t.img.bid.(i) = b

let add t ~sid ~pids =
  if Array.length pids = 0 then invalid_arg "Expr_index.add: empty pid sequence";
  t.n_exprs <- t.n_exprs + 1;
  match t.variant with
  | Basic ->
    t.n_nodes <- t.n_nodes + 1;
    Hashtbl.replace t.flat_pos sid (Vec.push t.flat (sid, pids))
  | Prefix_covering | Access_predicate | Shared ->
    let rec descend parent i =
      let node =
        match Edges.find_opt t.edges (edge_key parent pids.(i)) with
        | Some c -> c
        | None -> new_node t parent pids.(i)
      in
      set t node f_live (get t node f_live + 1);
      if i + 1 < Array.length pids then descend node (i + 1)
      else begin
        Vec.set t.b_sids node (sid :: Vec.get t.b_sids node);
        (* a node outside the image (new, or pruned when its subtree had
           no sids) needs a rebuild; one inside it, and its ancestors,
           are already walked *)
        if not (in_image t node) then t.dirty <- true
        else
          (* its new sid was not reported for this document yet *)
          t.img.mark.(get t node f_img) <- min_int
      end
    in
    descend (-1) 0

let expression_count t = t.n_exprs
let node_count t = t.n_nodes
let occurrence_runs t = Pf_obs.Counter.get t.m.runs

let remove t ~sid ~pids =
  match t.variant with
  | Basic -> (
    match Hashtbl.find_opt t.flat_pos sid with
    | None -> false
    | Some i ->
      Hashtbl.remove t.flat_pos sid;
      Vec.set t.flat i (sid, [||]);
      t.n_exprs <- t.n_exprs - 1;
      true)
  | Prefix_covering | Access_predicate | Shared ->
    (* a subtree left without sids stays in the image until the next
       rebuild drops it *)
    let rec descend parent i =
      match Edges.find_opt t.edges (edge_key parent pids.(i)) with
      | None -> false
      | Some node ->
        let found =
          if i + 1 < Array.length pids then descend node (i + 1)
          else
            let sids = Vec.get t.b_sids node in
            List.mem sid sids
            && begin
                 Vec.set t.b_sids node (List.filter (fun s -> s <> sid) sids);
                 true
               end
        in
        if found then set t node f_live (get t node f_live - 1);
        found
    in
    let found = Array.length pids > 0 && descend (-1) 0 in
    if found then t.n_exprs <- t.n_exprs - 1;
    found

(* Number the live nodes breadth-first into the image: an array queue
   over the build records' sibling chains, no hashing and, once the arrays
   have grown to the trie's size, no allocation. Sticky marks carry over
   through the old ids, so a rebuild between two paths of one document
   does not re-report its expressions. *)
let grow a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let rec enqueue_siblings t img c p d =
  if c >= 0 then begin
    if get t c f_live > 0 then begin
      let j = img.queued in
      img.next_bid.(j) <- c;
      img.parent.(j) <- p;
      img.depth.(j) <- d;
      img.queued <- j + 1
    end;
    enqueue_siblings t img (get t c f_next) p d
  end

let rebuild t =
  let img = t.img in
  let cap = t.n_nodes + 1 in
  img.ipid <- grow img.ipid cap;
  img.first_child <- grow img.first_child cap;
  img.parent <- grow img.parent cap;
  img.depth <- grow img.depth cap;
  img.covered <- grow img.covered cap;
  img.next_bid <- grow img.next_bid cap;
  img.next_mark <- grow img.next_mark cap;
  img.queued <- 0;
  enqueue_siblings t img t.first_root (-1) 0;
  let n_roots = img.queued in
  let p = ref 0 in
  while !p < img.queued do
    let b = img.next_bid.(!p) in
    img.ipid.(!p) <- get t b f_pid;
    (* [in_image] reads [b]'s old id against the old [bid], so renumbering
       nodes one at a time never confuses it *)
    img.next_mark.(!p) <- (if in_image t b then img.mark.(get t b f_img) else min_int);
    set t b f_img !p;
    img.first_child.(!p) <- img.queued;
    enqueue_siblings t img (get t b f_first) !p (img.depth.(!p) + 1);
    incr p
  done;
  let n = img.queued in
  img.first_child.(n) <- n;
  let bid = img.bid and mark = img.mark in
  img.bid <- img.next_bid;
  img.mark <- img.next_mark;
  img.next_bid <- bid;
  img.next_mark <- mark;
  img.n <- n;
  img.n_roots <- n_roots;
  (* ids ascend with depth: the last is the deepest *)
  let max_depth = if n = 0 then 0 else img.depth.(n - 1) in
  if Array.length t.stack <= max_depth then t.stack <- Array.make (max_depth + 1) 0;
  t.dirty <- false;
  Pf_obs.Counter.incr t.m.rebuilds

let sids_at t img i = Vec.get t.b_sids img.bid.(i)

(* ------------------------------------------------------------------ *)

(* Fill arena row [i] with pid's recorded pairs; true iff non-empty. The
   copy into contiguous memory is what the backtracking search — which
   revisits rows repeatedly — then runs over. *)
let fill_row t res i pid =
  let a = t.arena in
  t.rows <- t.rows + 1;
  Occurrence.start_row a i;
  Occurrence.push_chain a (Predicate_index.cells res) (Predicate_index.head res pid);
  Occurrence.row_len a i > 0

(* Make rows [0..d] hold the results of [stack.(0..d)]: rows below the
   [valid] watermark already do. *)
let rec fill_to t res d =
  if t.valid <= d then begin
    let i = t.valid in
    ignore (fill_row t res i t.stack.(i) : bool);
    t.valid <- i + 1;
    fill_to t res d
  end

(* One occurrence determination run is about to happen over a chain of
   [len] predicates. *)
let note_run t len =
  Pf_obs.Counter.incr t.m.runs;
  Pf_obs.Histogram.observe t.m.chain_len len

(* Report a node's sids, marking it for the document when sticky. *)
let report img i sids ~sticky ~doc_tag ~on_match =
  if sticky then img.mark.(i) <- doc_tag;
  List.iter on_match sids

let eval_basic t res ~on_match =
  let a = t.arena in
  Vec.iter
    (fun (sid, pids) ->
      let n = Array.length pids in
      if n > 0 then begin
        Occurrence.clear a;
        (* fetch each predicate's results; stop at the first empty one *)
        let rec fetch i = i >= n || (fill_row t res i pids.(i) && fetch (i + 1)) in
        if fetch 0 then begin
          note_run t n;
          if Occurrence.matches_packed a then on_match sid
        end
      end)
    t.flat

(* Prefix covering (without access predicates). Sid-bearing nodes are
   evaluated longest-first (descending image ids): each gets the flat
   algorithm's treatment — check its own predicate chain for dead results
   leaf-to-root, fill the arena root-to-leaf, then one occurrence
   determination run — but a match marks every ancestor node covered, so
   prefix expressions (and all duplicates, which share the node) are
   reported without evaluation. Unlike the access-predicate variant, a
   dead predicate does not rule out anything beyond the one expression
   being checked. *)
let rec pc_alive img res i =
  i < 0 || (Predicate_index.is_matched res img.ipid.(i) && pc_alive img res img.parent.(i))

let rec pc_cover img epoch i =
  if i >= 0 && img.covered.(i) <> epoch then begin
    img.covered.(i) <- epoch;
    pc_cover img epoch img.parent.(i)
  end

let rec pc_load_stack t img i =
  if i >= 0 then begin
    t.stack.(img.depth.(i)) <- img.ipid.(i);
    pc_load_stack t img img.parent.(i)
  end

let eval_pc t img res ~sticky ~doc_tag ~on_match =
  t.pc_epoch <- t.pc_epoch + 1;
  let epoch = t.pc_epoch in
  for i = img.n - 1 downto 0 do
    match sids_at t img i with
    | [] -> ()
    | sids ->
      if not (sticky && img.mark.(i) = doc_tag) then
        if img.covered.(i) = epoch then begin
          Pf_obs.Counter.add t.m.cover_skips (List.length sids);
          report img i sids ~sticky ~doc_tag ~on_match
        end
        else if pc_alive img res i then begin
          let d = img.depth.(i) in
          pc_load_stack t img i;
          t.valid <- 0;
          fill_to t res d;
          note_run t (d + 1);
          if Occurrence.matches_to t.arena d then begin
            report img i sids ~sticky ~doc_tag ~on_match;
            img.covered.(i) <- epoch;
            pc_cover img epoch img.parent.(i)
          end
        end
  done

(* Access predicates on top of prefix covering: a subtree whose entry
   predicate has no matching result is ruled out without visiting it (at
   the root this is the paper's clustering by first predicate; applying it
   at every node generalizes the same rule recursively). The walk keeps
   the pid of each depth on [stack]; arena rows are filled only when a run
   happens, from the [valid] watermark up to the run's depth, so a run
   reuses every row an earlier run on the same root path filled, and a
   node no run reaches through costs no copy at all. *)
(* The recursion is written as top-level functions taking everything as
   arguments rather than closures inside [eval_ap]: the visit runs once
   per image node per document path, and a closure allocation per node
   would dominate the match path's allocation — with these, the whole
   evaluation allocates nothing. *)
let rec ap_children t img res ~sticky ~doc_tag ~on_match c stop depth acc =
  if c >= stop then acc
  else if not (Predicate_index.is_matched res (Array.unsafe_get img.ipid c)) then begin
    (* dead access predicate: the whole subtree is ruled out *)
    t.skips <- t.skips + 1;
    ap_children t img res ~sticky ~doc_tag ~on_match (c + 1) stop depth acc
  end
  else begin
    let matched = ap_node t img res ~sticky ~doc_tag ~on_match c depth in
    ap_children t img res ~sticky ~doc_tag ~on_match (c + 1) stop depth (acc || matched)
  end

and ap_node t img res ~sticky ~doc_tag ~on_match i depth =
  t.stack.(depth) <- img.ipid.(i);
  if t.valid > depth then t.valid <- depth;
  let below =
    ap_children t img res ~sticky ~doc_tag ~on_match img.first_child.(i)
      img.first_child.(i + 1) (depth + 1) false
  in
  match sids_at t img i with
  | [] -> below
  | sids ->
    if sticky && img.mark.(i) = doc_tag then
      (* already fully reported for this document: no run needed *)
      below
    else if below then begin
      (* a longer expression below matched: covered, no run needed *)
      Pf_obs.Counter.add t.m.cover_skips (List.length sids);
      report img i sids ~sticky ~doc_tag ~on_match;
      true
    end
    else begin
      note_run t (depth + 1);
      fill_to t res depth;
      Occurrence.matches_to t.arena depth
      && begin
           report img i sids ~sticky ~doc_tag ~on_match;
           true
         end
    end

let eval_ap t img res ~sticky ~doc_tag ~on_match =
  t.valid <- 0;
  ignore (ap_children t img res ~sticky ~doc_tag ~on_match 0 img.n_roots 0 false : bool)

(* Shared: propagate the set of reachable chain endings down the trie. A
   node is reachable with endings S iff a chain exists through the pids on
   the root path ending with some o2 in S; its expressions match iff S is
   non-empty. Sets are tiny (bounded by occurrence counts in one path), so
   sorted int lists suffice. *)
let rec shared_visit t img res ~sticky ~doc_tag ~on_match i incoming =
  match Predicate_index.get_packed res img.ipid.(i) with
  | [] ->
    (* same pruning rule as the access-predicate variant *)
    t.skips <- t.skips + 1
  | pairs ->
    let reach =
      match incoming with
      | None -> List.sort_uniq compare (List.map Predicate_index.packed_second pairs)
      | Some s ->
        List.sort_uniq compare
          (List.filter_map
             (fun p ->
               if List.mem (Predicate_index.packed_first p) s then
                 Some (Predicate_index.packed_second p)
               else None)
             pairs)
    in
    if reach <> [] then begin
      (match sids_at t img i with
      | [] -> ()
      | sids ->
        if not (sticky && img.mark.(i) = doc_tag) then
          report img i sids ~sticky ~doc_tag ~on_match);
      for c = img.first_child.(i) to img.first_child.(i + 1) - 1 do
        shared_visit t img res ~sticky ~doc_tag ~on_match c (Some reach)
      done
    end

let eval_shared t img res ~sticky ~doc_tag ~on_match =
  for i = 0 to img.n_roots - 1 do
    shared_visit t img res ~sticky ~doc_tag ~on_match i None
  done

let eval t res ~sticky ~doc_tag ~on_match =
  if t.dirty then rebuild t;
  (* backtracking steps: the arena's monotone counter, flushed as a delta
     once per pass (a [~steps] ref would allocate a [Some] per run) *)
  let s0 = Occurrence.search_steps t.arena in
  t.skips <- 0;
  t.rows <- 0;
  (match t.variant with
  | Basic -> eval_basic t res ~on_match
  | Prefix_covering -> eval_pc t t.img res ~sticky ~doc_tag ~on_match
  | Access_predicate -> eval_ap t t.img res ~sticky ~doc_tag ~on_match
  | Shared -> eval_shared t t.img res ~sticky ~doc_tag ~on_match);
  Pf_obs.Counter.add t.m.steps (Occurrence.search_steps t.arena - s0);
  Pf_obs.Counter.add t.m.access_skips t.skips;
  Pf_obs.Counter.add t.m.rows_filled t.rows
