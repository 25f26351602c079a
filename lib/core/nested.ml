open Pf_xpath

let src = Pf_obs.Events.src "nested" ~doc:"Nested path filter matching"

module Log = (val Logs.src_log src : Logs.LOG)

type child = { sub : int; at_step : int }

type sub = {
  enc : Encoder.t;
  pids : int array;
  mutable children : child list;
  relevant : int array;  (* step indices whose bound node matters, sorted *)
  relevant_syms : Symbol.t array;
      (* interned tag of each relevant step, computed once at commit *)
  self_slot : int;  (* index into [relevant] of the branch step; -1 for roots *)
  (* per-document state *)
  mutable obs : int array list;  (* node ids per relevant slot *)
  mutable seen : (int array, unit) Hashtbl.t;
  mutable matched_nodes : (int, unit) Hashtbl.t;  (* node ids at self_slot *)
  mutable root_matched : bool;
  mutable retired : bool;  (* its expression was removed: every pass skips it *)
}

type t = {
  index : Predicate_index.t;
  mutable subs : sub Vec.t;
  mutable n_retired : int;  (* retired subs still in [subs] *)
  mutable roots : (int * int) list;  (* (sid, root sub id) *)
  mutable n_exprs : int;
  (* per-document node identification: node at depth d is (parent node, m_d) *)
  mutable node_tbl : (int * int, int) Hashtbl.t;
  mutable next_node : int;
  (* the current path's node ids, computed by the first sub that needs
     them ([path_ids]) *)
  mutable path_ids : int array;
  mutable path_ids_fresh : bool;
  arena : Occurrence.arena;  (* candidate-set scratch reused across paths *)
}

let max_chains_per_path = 4096

let dummy_sub =
  {
    enc =
      {
        Encoder.source = Ast.path [ Ast.step (Ast.Tag "x") ];
        preds = [||];
        step_vars = [||];
      };
    pids = [||];
    children = [];
    relevant = [||];
    relevant_syms = [||];
    self_slot = -1;
    obs = [];
    seen = Hashtbl.create 1;
    matched_nodes = Hashtbl.create 1;
    root_matched = false;
    retired = false;
  }

let create index =
  {
    index;
    subs = Vec.create ~dummy:dummy_sub ();
    n_retired = 0;
    roots = [];
    n_exprs = 0;
    node_tbl = Hashtbl.create 64;
    next_node = 0;
    path_ids = [||];
    path_ids_fresh = false;
    arena = Occurrence.create_arena ();
  }

let is_empty t = t.roots = []
let expression_count t = t.n_exprs
let sub_expression_count t = Vec.length t.subs - t.n_retired

let strip_nested (s : Ast.step) =
  {
    s with
    Ast.filters =
      List.filter (function Ast.Attr _ -> true | Ast.Nested _ -> false) s.Ast.filters;
  }

(* Decomposition runs in two phases so a rejected expression leaves the
   filter — and the shared predicate index — untouched: [plan_path] walks
   the whole sub-expression tree and performs every check that can raise
   [Encoder.Unsupported]; [commit] then interns and registers the planned
   subs and cannot fail. *)
type plan = {
  pl_enc : Encoder.t;
  pl_relevant : int array;  (* step indices whose bound node matters, sorted *)
  pl_self_slot : int;  (* index into [pl_relevant] of the branch step; -1 for roots *)
  pl_children : (plan * int) list;  (* child plan, branch step *)
}

(* Plan the decomposition of [p] into a sub-expression tree. [branch_step]
   is the 0-based step index at which [p] forks from its parent (-1 for
   the root). *)
let rec plan_path (p : Ast.path) ~branch_step =
  let steps = Array.of_list p.Ast.steps in
  let main = { p with Ast.steps = List.map strip_nested p.Ast.steps } in
  let enc = Encoder.encode main in
  (* collect (step index, nested filter) pairs *)
  let forks = ref [] in
  Array.iteri
    (fun i (s : Ast.step) ->
      List.iter
        (function
          | Ast.Attr _ -> ()
          | Ast.Nested q ->
            (match s.Ast.test with
            | Ast.Tag _ -> ()
            | Ast.Wildcard ->
              raise (Encoder.Unsupported "nested path filter on a wildcard step"));
            forks := (i, q) :: !forks)
        s.Ast.filters)
    steps;
  let forks = List.rev !forks in
  let fork_steps = List.map fst forks in
  let relevant =
    List.sort_uniq compare
      (if branch_step >= 0 then branch_step :: fork_steps else fork_steps)
  in
  (* every relevant step must be locatable from an occurrence chain *)
  List.iter
    (fun k ->
      match enc.Encoder.step_vars.(k) with
      | Some _ -> ()
      | None -> raise (Encoder.Unsupported "nested path filter on a wildcard step"))
    relevant;
  let relevant = Array.of_list relevant in
  let slot_of k =
    let rec go i = if relevant.(i) = k then i else go (i + 1) in
    go 0
  in
  let self_slot = if branch_step >= 0 then slot_of branch_step else -1 in
  let children =
    List.map
      (fun (i, (q : Ast.path)) ->
        let prefix =
          List.filteri (fun j _ -> j <= i) (Array.to_list steps) |> List.map strip_nested
        in
        let ext = { Ast.absolute = p.Ast.absolute; steps = prefix @ q.Ast.steps } in
        plan_path ext ~branch_step:i, i)
      forks
  in
  { pl_enc = enc; pl_relevant = relevant; pl_self_slot = self_slot; pl_children = children }

(* Parents are pushed before their children, so descending sub ids remain
   a bottom-up order for [finish_document]. *)
let rec commit t pl =
  let pids = Array.map (Predicate_index.intern t.index) pl.pl_enc.Encoder.preds in
  let steps = Array.of_list pl.pl_enc.Encoder.source.Ast.steps in
  let relevant_syms =
    Array.map
      (fun k ->
        match steps.(k).Ast.test with
        | Ast.Tag tag -> Symbol.intern tag
        | Ast.Wildcard -> assert false (* rejected by plan_path *))
      pl.pl_relevant
  in
  let s =
    {
      enc = pl.pl_enc;
      pids;
      children = [];
      relevant = pl.pl_relevant;
      relevant_syms;
      self_slot = pl.pl_self_slot;
      obs = [];
      seen = Hashtbl.create 8;
      matched_nodes = Hashtbl.create 8;
      root_matched = false;
      retired = false;
    }
  in
  let id = Vec.push t.subs s in
  s.children <-
    List.map (fun (cp, at_step) -> { sub = commit t cp; at_step }) pl.pl_children;
  id

let add t ~sid (p : Ast.path) =
  if Ast.is_single_path p then
    invalid_arg "Nested.add: single-path expression (use the main pipeline)";
  let plan = plan_path p ~branch_step:(-1) in
  let root = commit t plan in
  t.roots <- (sid, root) :: t.roots;
  t.n_exprs <- t.n_exprs + 1

(* Sub-expressions belong to one expression each (commit never shares
   them), so a removed expression's whole sub tree is retired. *)
let rec retire t id =
  let s = Vec.get t.subs id in
  s.retired <- true;
  t.n_retired <- t.n_retired + 1;
  List.iter (fun c -> retire t c.sub) s.children

(* Drop the retired subs once they are the majority (amortized O(1) per
   removal). Survivors keep their relative order, so parents still come
   before their children. *)
let compact t =
  let remap = Array.make (Vec.length t.subs) (-1) in
  let subs = Vec.create ~dummy:dummy_sub () in
  Vec.iteri (fun id s -> if not s.retired then remap.(id) <- Vec.push subs s) t.subs;
  Vec.iter
    (fun s -> s.children <- List.map (fun c -> { c with sub = remap.(c.sub) }) s.children)
    subs;
  t.roots <- List.map (fun (sid, root) -> sid, remap.(root)) t.roots;
  t.subs <- subs;
  t.n_retired <- 0

let remove t ~sid =
  match List.assoc_opt sid t.roots with
  | None -> false
  | Some root ->
    t.roots <- List.filter (fun (s, _) -> s <> sid) t.roots;
    t.n_exprs <- t.n_exprs - 1;
    retire t root;
    if 2 * t.n_retired > Vec.length t.subs then compact t;
    true

let begin_document t =
  Vec.iter
    (fun s ->
      if not s.retired then begin
        s.obs <- [];
        Hashtbl.reset s.seen;
        Hashtbl.reset s.matched_nodes;
        s.root_matched <- false
      end)
    t.subs;
  Hashtbl.reset t.node_tbl;
  t.next_node <- 0

(* Node ids along one path: node at depth d (1-based) is identified by its
   parent's id and its child index, so any two paths through the same
   document node compute the same id. *)
let node_ids t (pub : Publication.t) =
  let n = pub.Publication.length in
  let ids = Array.make n 0 in
  let parent = ref (-1) in
  for d = 0 to n - 1 do
    let key = !parent, pub.Publication.structure.(d) in
    let id =
      match Hashtbl.find_opt t.node_tbl key with
      | Some id -> id
      | None ->
        let id = t.next_node in
        t.next_node <- id + 1;
        Hashtbl.add t.node_tbl key id;
        id
    in
    ids.(d) <- id;
    parent := id
  done;
  ids

let path_ids t pub =
  if not t.path_ids_fresh then begin
    t.path_ids <- node_ids t pub;
    t.path_ids_fresh <- true
  end;
  t.path_ids

(* The per-path pass visits every sub, so its loops are top-level
   recursions rather than local closures: a closure per sub per path
   allocated more than the rest of the engine's match path together. *)
let rec all_matched res pids i =
  i >= Array.length pids
  || (Predicate_index.is_matched res pids.(i) && all_matched res pids (i + 1))

let rec fill_rows a res pids i =
  if i < Array.length pids then begin
    Occurrence.start_row a i;
    Occurrence.push_chain a (Predicate_index.cells res) (Predicate_index.head res pids.(i));
    fill_rows a res pids (i + 1)
  end

let observe_sub t res (pub : Publication.t) s =
  if (not s.retired) && all_matched res s.pids 0 then begin
    let a = t.arena in
    Occurrence.clear a;
    fill_rows a res s.pids 0;
    if Array.length s.relevant = 0 then begin
      (* no branch bookkeeping needed: one successful chain suffices *)
      if Occurrence.matches_packed a then s.obs <- [||] :: s.obs
    end
    else begin
      let ids = path_ids t pub in
      let count = ref 0 in
      let record chain (_ : int) =
        incr count;
        if !count = max_chains_per_path then
          Log.warn (fun m ->
              m
                "occurrence chain enumeration capped at %d for %a on a path; \
                 nested matching may under-report on this document"
                max_chains_per_path Ast.pp s.enc.Encoder.source);
        let nodes =
          Array.mapi
            (fun slot k ->
              let pred_idx, side =
                match s.enc.Encoder.step_vars.(k) with
                | Some v -> v
                | None -> assert false
              in
              let p = chain.(pred_idx) in
              let occ =
                match side with
                | Encoder.First -> Predicate_index.packed_first p
                | Encoder.Second -> Predicate_index.packed_second p
              in
              match
                Publication.pos_of_occurrence pub ~tag:s.relevant_syms.(slot) ~occurrence:occ
              with
              | Some pos -> ids.(pos - 1)
              | None -> assert false)
            s.relevant
        in
        if not (Hashtbl.mem s.seen nodes) then begin
          Hashtbl.add s.seen nodes ();
          s.obs <- nodes :: s.obs
        end;
        !count >= max_chains_per_path (* true stops the enumeration *)
      in
      ignore (Occurrence.iter_chains_packed a record : bool)
    end
  end

let observe_path t res (pub : Publication.t) =
  if t.roots <> [] then begin
    t.path_ids_fresh <- false;
    for id = 0 to Vec.length t.subs - 1 do
      observe_sub t res pub (Vec.get t.subs id)
    done
  end

let finish_document t ~on_match =
  (* children were created after their parents, so descending ids is a
     bottom-up order *)
  for id = Vec.length t.subs - 1 downto 0 do
    let s = Vec.get t.subs id in
    if not s.retired then begin
      let child_ok nodes { sub; at_step } =
        let c = Vec.get t.subs sub in
        let slot =
          let rec go i = if s.relevant.(i) = at_step then i else go (i + 1) in
          go 0
        in
        Hashtbl.mem c.matched_nodes nodes.(slot)
      in
      List.iter
        (fun nodes ->
          if List.for_all (child_ok nodes) s.children then begin
            if s.self_slot >= 0 then Hashtbl.replace s.matched_nodes nodes.(s.self_slot) ()
            else s.root_matched <- true
          end)
        s.obs
    end
  done;
  List.iter (fun (sid, root) -> if (Vec.get t.subs root).root_matched then on_match sid) t.roots
