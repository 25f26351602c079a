(* Tests for the predicate index (Figure 1) and the predicate matching
   stage (Section 4.1), including Table 1 transcribed verbatim. *)

open Pf_core

let tv = Predicate.tagvar

let sorted_pairs l = List.sort compare l

let check_pairs msg expected actual =
  Alcotest.(check (list (pair int int))) msg (sorted_pairs expected) (sorted_pairs actual)

(* ------------------------------------------------------------------ *)
(* Interning *)

let test_intern_dedup () =
  let idx = Predicate_index.create () in
  let p1 = Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Eq; v = 1 } in
  let p2 = Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Eq; v = 2 } in
  let p3 = Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Ge; v = 1 } in
  let i1 = Predicate_index.intern idx p1 in
  let i1' = Predicate_index.intern idx p1 in
  let i2 = Predicate_index.intern idx p2 in
  let i3 = Predicate_index.intern idx p3 in
  Alcotest.(check int) "same predicate, same pid" i1 i1';
  Alcotest.(check bool) "different value" true (i1 <> i2);
  Alcotest.(check bool) "different op" true (i1 <> i3);
  Alcotest.(check int) "three distinct stored" 3 (Predicate_index.size idx)

let test_intern_constraints_distinct () =
  let idx = Predicate_index.create () in
  let plain = Predicate.Absolute { tag = tv "a"; op = Predicate.Eq; v = 1 } in
  let constrained =
    Predicate.Absolute
      {
        tag = tv ~constraints:[ { Predicate.attr = "x"; cmp = Pf_xpath.Ast.Eq; value = Pf_xpath.Ast.Int 3 } ] "a";
        op = Predicate.Eq;
        v = 1;
      }
  in
  let i1 = Predicate_index.intern idx plain in
  let i2 = Predicate_index.intern idx constrained in
  Alcotest.(check bool) "constraints distinguish predicates" true (i1 <> i2);
  Alcotest.(check int) "constrained re-interned" i2 (Predicate_index.intern idx constrained)

let test_find () =
  let idx = Predicate_index.create () in
  let p = Predicate.Length { v = 3 } in
  Alcotest.(check (option int)) "absent" None (Predicate_index.find idx p);
  let i = Predicate_index.intern idx p in
  Alcotest.(check (option int)) "present" (Some i) (Predicate_index.find idx p);
  Alcotest.(check bool) "predicate recovered" true
    (Predicate.equal (Predicate_index.predicate idx i) p)

(* The paper's overlap example (Section 4.1.2): /a/*/c and */a/*/c/*/*/*
   share (d(p_a,p_c),=,2), stored once *)
let test_shared_predicate () =
  let idx = Predicate_index.create () in
  let e1 = (Encoder.encode_string "/a/*/c").Encoder.preds in
  let e2 = (Encoder.encode_string "*/a/*/c/*/*/*").Encoder.preds in
  let pids1 = Array.map (Predicate_index.intern idx) e1 in
  let pids2 = Array.map (Predicate_index.intern idx) e2 in
  (* /a/*/c = (p_a,=,1) |-> (d(p_a,p_c),=,2)
     */a/*/c/*/*/* = (p_a,>=,2) |-> (d(p_a,p_c),=,2) |-> (p_c-|,>=,3) *)
  Alcotest.(check int) "shared relative pid" pids1.(1) pids2.(1);
  (* (p_a,=,1), (d(p_a,p_c),=,2) shared, (p_a,>=,2), (p_c-|,>=,3) *)
  Alcotest.(check int) "four distinct predicates" 4 (Predicate_index.size idx)

(* ------------------------------------------------------------------ *)
(* Matching rules (Section 4.1.1) *)

let run_on idx tags =
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags tags);
  res

let test_absolute_matching () =
  let idx = Predicate_index.create () in
  let eq2 = Predicate_index.intern idx (Predicate.Absolute { tag = tv "b"; op = Predicate.Eq; v = 2 }) in
  let ge2 = Predicate_index.intern idx (Predicate.Absolute { tag = tv "b"; op = Predicate.Ge; v = 2 }) in
  let eq3 = Predicate_index.intern idx (Predicate.Absolute { tag = tv "b"; op = Predicate.Eq; v = 3 }) in
  let res = run_on idx [ "a"; "b"; "c"; "b" ] in
  check_pairs "(p_b,=,2)" [ 1, 1 ] (Predicate_index.get res eq2);
  check_pairs "(p_b,>=,2)" [ 1, 1; 2, 2 ] (Predicate_index.get res ge2);
  check_pairs "(p_b,=,3)" [] (Predicate_index.get res eq3);
  Alcotest.(check bool) "is_matched" true (Predicate_index.is_matched res eq2);
  Alcotest.(check bool) "not matched" false (Predicate_index.is_matched res eq3)

let test_relative_matching () =
  let idx = Predicate_index.create () in
  let d1 = Predicate_index.intern idx (Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Eq; v = 2 }) in
  let res = run_on idx [ "a"; "c"; "b"; "b" ] in
  (* only (a^1 at 1, b^1 at 3) has distance exactly 2 *)
  check_pairs "(d(p_a,p_b),=,2)" [ 1, 1 ] (Predicate_index.get res d1)

let test_relative_order_matters () =
  let idx = Predicate_index.create () in
  let d = Predicate_index.intern idx (Predicate.Relative { first = tv "b"; second = tv "a"; op = Predicate.Ge; v = 1 }) in
  let res = run_on idx [ "a"; "b" ] in
  check_pairs "b before a required" [] (Predicate_index.get res d)

let test_end_of_path_matching () =
  let idx = Predicate_index.create () in
  let e2 = Predicate_index.intern idx (Predicate.End_of_path { tag = tv "a"; v = 2 }) in
  let res = run_on idx [ "a"; "b"; "a"; "c" ] in
  (* a^1 at pos 1: 4-1>=2 ok; a^2 at pos 3: 4-3=1 < 2 *)
  check_pairs "(p_a-|,>=,2)" [ 1, 1 ] (Predicate_index.get res e2)

let test_length_matching () =
  let idx = Predicate_index.create () in
  let l3 = Predicate_index.intern idx (Predicate.Length { v = 3 }) in
  let l4 = Predicate_index.intern idx (Predicate.Length { v = 4 }) in
  let res = run_on idx [ "a"; "b"; "c" ] in
  check_pairs "(length,>=,3)" [ 0, 0 ] (Predicate_index.get res l3);
  check_pairs "(length,>=,4)" [] (Predicate_index.get res l4)

(* Table 1, verbatim: path (a,b,c,a,b,c), XPEs a//b/c and c//b//a *)
let test_table_1 () =
  let idx = Predicate_index.create () in
  let intern p = Array.map (Predicate_index.intern idx) p.Encoder.preds in
  let e1 = intern (Encoder.encode_string "a//b/c") in
  let e2 = intern (Encoder.encode_string "c//b//a") in
  let res = run_on idx [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  check_pairs "(d(p_a,p_b),>=,1)" [ 1, 1; 1, 2; 2, 2 ] (Predicate_index.get res e1.(0));
  check_pairs "(d(p_b,p_c),=,1)" [ 1, 1; 2, 2 ] (Predicate_index.get res e1.(1));
  check_pairs "(d(p_c,p_b),>=,1)" [ 1, 2 ] (Predicate_index.get res e2.(0));
  check_pairs "(d(p_b,p_a),>=,1)" [ 1, 2 ] (Predicate_index.get res e2.(1))

let test_epoch_reset () =
  let idx = Predicate_index.create () in
  let p = Predicate_index.intern idx (Predicate.Absolute { tag = tv "a"; op = Predicate.Eq; v = 1 }) in
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags [ "a" ]);
  Alcotest.(check bool) "matched on first run" true (Predicate_index.is_matched res p);
  Predicate_index.run idx res (Publication.of_tags [ "b" ]);
  Alcotest.(check bool) "previous results discarded" false (Predicate_index.is_matched res p);
  check_pairs "get returns empty" [] (Predicate_index.get res p);
  Alcotest.(check int) "matched_count" 0 (Predicate_index.matched_count res)

let test_inline_constraints () =
  let idx = Predicate_index.create () in
  let c v = { Predicate.attr = "x"; cmp = Pf_xpath.Ast.Ge; value = Pf_xpath.Ast.Int v } in
  let pid = Predicate_index.intern idx
      (Predicate.Absolute { tag = tv ~constraints:[ c 3 ] "a"; op = Predicate.Eq; v = 1 }) in
  let res = Predicate_index.create_results () in
  let pub_of attrs =
    let doc = Pf_xml.Tree.doc (Pf_xml.Tree.element ~attrs "a") in
    match Pf_xml.Path.of_document doc with [ p ] -> Publication.of_path p | _ -> assert false
  in
  Predicate_index.run idx res (pub_of [ "x", "5" ]);
  Alcotest.(check bool) "x=5 satisfies >=3" true (Predicate_index.is_matched res pid);
  Predicate_index.run idx res (pub_of [ "x", "2" ]);
  Alcotest.(check bool) "x=2 fails" false (Predicate_index.is_matched res pid);
  Predicate_index.run idx res (pub_of []);
  Alcotest.(check bool) "missing attribute fails" false (Predicate_index.is_matched res pid)

(* property: matching results obey the Section 4.1.1 rules exactly,
   cross-checked against a naive evaluator over the publication *)
let naive_matches (pred : Predicate.t) (pub : Publication.t) =
  let tuples = List.init pub.Publication.length (fun i -> pub.Publication.tuples.(i)) in
  let op_holds op diff v =
    match op with Predicate.Eq -> diff = v | Predicate.Ge -> diff >= v
  in
  let sym (tv : Predicate.tagvar) = Symbol.intern tv.Predicate.name in
  match pred with
  | Predicate.Absolute { tag; op; v } ->
    let s = sym tag in
    List.filter_map
      (fun tu ->
        if tu.Publication.tag = s && op_holds op tu.Publication.pos v
        then Some (tu.Publication.occurrence, tu.Publication.occurrence)
        else None)
      tuples
  | Predicate.Relative { first; second; op; v } ->
    let s1 = sym first and s2 = sym second in
    List.concat_map
      (fun t1 ->
        if t1.Publication.tag <> s1 then []
        else
          List.filter_map
            (fun t2 ->
              if t2.Publication.tag = s2
                 && t2.Publication.pos > t1.Publication.pos
                 && op_holds op (t2.Publication.pos - t1.Publication.pos) v
              then Some (t1.Publication.occurrence, t2.Publication.occurrence)
              else None)
            tuples)
      tuples
  | Predicate.End_of_path { tag; v } ->
    let s = sym tag in
    List.filter_map
      (fun tu ->
        if tu.Publication.tag = s && pub.Publication.length - tu.Publication.pos >= v
        then Some (tu.Publication.occurrence, tu.Publication.occurrence)
        else None)
      tuples
  | Predicate.Length { v } -> if pub.Publication.length >= v then [ 0, 0 ] else []

let pred_gen =
  let open QCheck2 in
  Gen.(
    oneof
      [
        (Gen_helpers.tag_gen >>= fun t ->
         oneofl [ Predicate.Eq; Predicate.Ge ] >>= fun op ->
         int_range 1 6 >>= fun v ->
         return (Predicate.Absolute { tag = Predicate.tagvar t; op; v }));
        (Gen_helpers.tag_gen >>= fun t1 ->
         Gen_helpers.tag_gen >>= fun t2 ->
         oneofl [ Predicate.Eq; Predicate.Ge ] >>= fun op ->
         int_range 1 5 >>= fun v ->
         return
           (Predicate.Relative
              { first = Predicate.tagvar t1; second = Predicate.tagvar t2; op; v }));
        (Gen_helpers.tag_gen >>= fun t ->
         int_range 1 5 >>= fun v ->
         return (Predicate.End_of_path { tag = Predicate.tagvar t; v }));
        (int_range 1 6 >>= fun v -> return (Predicate.Length { v }));
      ])

(* Deep publications: 100-1500 tuples over 2-4 tags, assembled from long
   same-tag chains, two-tag combs and short noisy runs, so the relative
   join walks long chains with many matching and many out-of-reach pairs.
   [late_tag] is interned after the deep tags, so a predicate naming it
   grows the index's symbol bound past every deep tag. *)
let deep_tags = [| "dpa"; "dpb"; "dpc"; "dpd" |]
let late_tag = "dplate"

let () =
  Array.iter (fun t -> ignore (Symbol.intern t : Symbol.t)) deep_tags;
  ignore (Symbol.intern late_tag : Symbol.t)

let deep_tags_gen ~alphabet =
  let open QCheck2.Gen in
  int_range 2 4 >>= fun k ->
  int_range 100 1500 >>= fun len ->
  let tag = oneofl (List.init k (fun i -> alphabet.(i))) in
  let segment =
    frequency
      [
        (2, pair tag (int_range 1 300) >|= fun (t, n) -> List.init n (fun _ -> t));
        ( 2,
          triple tag tag (int_range 1 100) >|= fun (t1, t2, n) ->
          List.init (2 * n) (fun i -> if i land 1 = 0 then t1 else t2) );
        1, list_size (int_range 1 20) tag;
      ]
  in
  let rec fill acc n =
    if n >= len then return (List.filteri (fun i _ -> i < len) (List.concat (List.rev acc)))
    else segment >>= fun seg -> fill (seg :: acc) (n + List.length seg)
  in
  fill [] 0

(* run-length form, so a 1500-tuple counterexample stays readable *)
let print_deep_tags tags =
  let rec go acc = function
    | [] -> List.rev acc
    | t :: rest ->
      let rec count n = function x :: r when x = t -> count (n + 1) r | r -> n, r in
      let n, rest = count 1 rest in
      go ((if n = 1 then t else Printf.sprintf "%s*%d" t n) :: acc) rest
  in
  Printf.sprintf "[%d] %s" (List.length tags) (String.concat "/" (go [] tags))

(* predicates over the deep tags, with distances both short and far *)
let deep_pred_gen =
  let open QCheck2.Gen in
  let tag = oneofa deep_tags >|= Predicate.tagvar in
  let op = oneofl [ Predicate.Eq; Predicate.Ge ] in
  let dist = frequency [ 3, int_range 1 6; 1, int_range 7 1500 ] in
  frequency
    [
      ( 4,
        tag >>= fun first ->
        tag >>= fun second ->
        op >>= fun op ->
        dist >|= fun v -> Predicate.Relative { first; second; op; v } );
      (1, tag >>= fun tag -> op >>= fun op -> dist >|= fun v -> Predicate.Absolute { tag; op; v });
      (1, tag >>= fun tag -> dist >|= fun v -> Predicate.End_of_path { tag; v });
      (1, dist >|= fun v -> Predicate.Length { v });
    ]

let agrees_with_naive preds pub =
  let idx = Predicate_index.create () in
  let pids = List.map (Predicate_index.intern idx) preds in
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res pub;
  List.for_all2
    (fun pred pid ->
      sorted_pairs (Predicate_index.get res pid) = sorted_pairs (naive_matches pred pub))
    preds pids

let prop_matching_agrees_with_naive =
  let open QCheck2 in
  let tags_gen = Gen.(list_size (int_range 1 7) Gen_helpers.tag_gen) in
  Test.make ~name:"index matching = naive rule evaluation" ~count:2000
    ~print:(fun (preds, tags) ->
      Format.asprintf "%a on %s" Predicate.pp_list preds (String.concat "/" tags))
    Gen.(pair (list_size (int_range 1 5) pred_gen) tags_gen)
    (fun (preds, tags) -> agrees_with_naive preds (Publication.of_tags tags))

let prop_deep_matching_agrees_with_naive =
  let open QCheck2 in
  Test.make ~name:"index matching = naive rule evaluation (deep paths)" ~count:60
    ~print:(fun (preds, tags) ->
      Format.asprintf "%a on %s" Predicate.pp_list preds (print_deep_tags tags))
    Gen.(pair (list_size (int_range 1 6) deep_pred_gen) (deep_tags_gen ~alphabet:deep_tags))
    (fun (preds, tags) -> agrees_with_naive preds (Publication.of_tags tags))

(* ------------------------------------------------------------------ *)
(* Equivalence with the pre-rewrite list-slot implementation
   (Pf_difftest.Predicate_ref): the cache-flat index must be
   byte-identical — same pids, same packed pairs in the same order, same
   probe/hit counter totals — including across re-interning churn (which
   must not perturb anything) and mid-sequence growth (which forces a
   flat-image rebuild between documents). *)

module Pref = Pf_difftest.Predicate_ref

(* like [pred_gen] but a third of the absolute predicates carry attribute
   constraints, so the constraint-bitmap path is exercised *)
let cpred_gen =
  let open QCheck2 in
  let constraint_gen =
    Gen.(
      Gen_helpers.attr_name_gen >>= fun attr ->
      oneofl Pf_xpath.Ast.[ Eq; Ne; Ge; Lt ] >>= fun cmp ->
      int_range 0 3 >>= fun v ->
      return { Predicate.attr; cmp; value = Pf_xpath.Ast.Int v })
  in
  Gen.(
    oneof
      [
        pred_gen;
        pred_gen;
        (Gen_helpers.tag_gen >>= fun t ->
         list_size (int_range 1 2) constraint_gen >>= fun cs ->
         oneofl [ Predicate.Eq; Predicate.Ge ] >>= fun op ->
         int_range 1 4 >>= fun v ->
         return (Predicate.Absolute { tag = Predicate.tagvar ~constraints:cs t; op; v }));
      ])

let pubs_of_docs docs =
  List.concat_map
    (fun d -> List.map Publication.of_path (Pf_xml.Path.of_document d))
    docs

let agree idx res rdx rres pub =
  Predicate_index.run idx res pub;
  Pref.run rdx rres pub;
  Predicate_index.matched_count res = Pref.matched_count rres
  && List.for_all
       (fun pid ->
         Predicate_index.is_matched res pid = Pref.is_matched rres pid
         && Predicate_index.get_packed res pid = Pref.get_packed rres pid)
       (List.init (Predicate_index.size idx) Fun.id)

let equiv_print (batch1, batch2, docs) =
  Format.asprintf "%a then %a on %d docs" Predicate.pp_list batch1 Predicate.pp_list
    batch2 (List.length docs)

(* Intern [batch1], run the first half of [pubs], intern [batch2] (and
   [batch1] again), run the rest: every run must equal the reference, and
   the counter totals must too. The join never walks more pairs than the
   all-pairs loop it replaced. *)
let flat_agrees (batch1, batch2, pubs) =
  let m_new = Predicate_index.make_metrics () in
  let m_old = Pref.make_metrics () in
  let idx = Predicate_index.create ~metrics:m_new () in
  let rdx = Pref.create ~metrics:m_old () in
  let pids1 = List.map (Predicate_index.intern idx) batch1 in
  let rpids1 = List.map (Pref.intern rdx) batch1 in
  let res = Predicate_index.create_results () in
  let rres = Pref.create_results () in
  let k = List.length pubs / 2 in
  let before = List.filteri (fun i _ -> i < k) pubs in
  let after = List.filteri (fun i _ -> i >= k) pubs in
  let all_pairs =
    List.fold_left
      (fun acc (p : Publication.t) -> acc + (p.Publication.length * (p.Publication.length - 1) / 2))
      0 pubs
  in
  pids1 = rpids1
  && List.for_all (agree idx res rdx rres) before
  && begin
       (* churn: new predicates force a rebuild before the next run;
          re-interning existing ones must change nothing (same pids,
          no divergence) *)
       let pids2 = List.map (Predicate_index.intern idx) batch2 in
       let rpids2 = List.map (Pref.intern rdx) batch2 in
       let again1 = List.map (Predicate_index.intern idx) batch1 in
       let ragain1 = List.map (Pref.intern rdx) batch1 in
       pids2 = rpids2 && again1 = pids1 && ragain1 = rpids1
     end
  && List.for_all (agree idx res rdx rres) after
  && Pf_obs.Counter.get m_new.Predicate_index.probes = Pf_obs.Counter.get m_old.Pref.probes
  && Pf_obs.Counter.get m_new.Predicate_index.hits = Pf_obs.Counter.get m_old.Pref.hits
  && Pf_obs.Counter.get m_new.Predicate_index.pair_visits <= all_pairs

let prop_flat_agrees_with_listslot =
  let open QCheck2 in
  Test.make ~name:"flat index = list-slot reference (with churn)" ~count:600
    ~print:equiv_print
    Gen.(
      triple
        (list_size (int_range 1 5) cpred_gen)
        (list_size (int_range 0 4) cpred_gen)
        (list_size (int_range 1 3) Gen_helpers.doc_gen))
    (fun (batch1, batch2, docs) -> flat_agrees (batch1, batch2, pubs_of_docs docs))

(* Deep paths over the deep tags plus [late_tag]. The first batch never
   names [late_tag], so its tuples sit beyond the symbol bound until the
   second batch, which always does, grows the bound mid-sequence — the
   join's per-symbol scratch must grow with it. *)
let prop_deep_flat_agrees_with_listslot =
  let open QCheck2 in
  let alphabet = Array.append [| late_tag |] deep_tags in
  let late_pred_gen =
    Gen.(
      deep_pred_gen >|= function
      | Predicate.Relative r -> Predicate.Relative { r with first = Predicate.tagvar late_tag }
      | Predicate.Absolute r -> Predicate.Absolute { r with tag = Predicate.tagvar late_tag }
      | Predicate.End_of_path r -> Predicate.End_of_path { r with tag = Predicate.tagvar late_tag }
      | Predicate.Length _ ->
        Predicate.Relative
          { first = Predicate.tagvar "dpa"; second = Predicate.tagvar late_tag; op = Predicate.Ge; v = 1 })
  in
  Test.make ~name:"flat index = list-slot reference (deep paths, symbol growth)" ~count:60
    ~print:(fun (batch1, batch2, tags) ->
      Format.asprintf "%a then %a on %s" Predicate.pp_list batch1 Predicate.pp_list batch2
        (String.concat " ; " (List.map print_deep_tags tags)))
    Gen.(
      triple
        (list_size (int_range 1 6) deep_pred_gen)
        (pair late_pred_gen (list_size (int_range 0 4) deep_pred_gen) >|= fun (p, ps) -> p :: ps)
        (list_size (int_range 2 3) (deep_tags_gen ~alphabet)))
    (fun (batch1, batch2, tags) ->
      flat_agrees (batch1, batch2, List.map Publication.of_tags tags))

let prop_run_batch_agrees =
  let open QCheck2 in
  Test.make ~name:"run_batch = iterated reference runs" ~count:400
    ~print:(fun (preds, docs) ->
      Format.asprintf "%a on %d docs" Predicate.pp_list preds (List.length docs))
    Gen.(
      pair
        (list_size (int_range 1 6) cpred_gen)
        (list_size (int_range 1 3) Gen_helpers.doc_gen))
    (fun (preds, docs) ->
      let m_new = Predicate_index.make_metrics () in
      let m_old = Pref.make_metrics () in
      let idx = Predicate_index.create ~metrics:m_new () in
      let rdx = Pref.create ~metrics:m_old () in
      let pids = List.map (Predicate_index.intern idx) preds in
      let rpids = List.map (Pref.intern rdx) preds in
      let pubs = Array.of_list (pubs_of_docs docs) in
      let n = Array.length pubs in
      let ress = Array.init n (fun _ -> Predicate_index.create_results ()) in
      Predicate_index.run_batch idx ress pubs;
      let rres = Pref.create_results () in
      pids = rpids
      && Array.for_all Fun.id
           (Array.mapi
              (fun i pub ->
                Pref.run rdx rres pub;
                Predicate_index.matched_count ress.(i) = Pref.matched_count rres
                && List.for_all
                     (fun pid ->
                       Predicate_index.is_matched ress.(i) pid
                       = Pref.is_matched rres pid
                       && Predicate_index.get_packed ress.(i) pid
                          = Pref.get_packed rres pid)
                     (List.init (Predicate_index.size idx) Fun.id))
              pubs)
      && Pf_obs.Counter.get m_new.Predicate_index.probes
         = Pf_obs.Counter.get m_old.Pref.probes
      && Pf_obs.Counter.get m_new.Predicate_index.hits
         = Pf_obs.Counter.get m_old.Pref.hits)

let () =
  Alcotest.run "predicate_index"
    [
      ( "interning",
        [
          Alcotest.test_case "dedup" `Quick test_intern_dedup;
          Alcotest.test_case "constraints distinguish" `Quick test_intern_constraints_distinct;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "sharing example (Fig 1)" `Quick test_shared_predicate;
        ] );
      ( "matching",
        [
          Alcotest.test_case "absolute" `Quick test_absolute_matching;
          Alcotest.test_case "relative" `Quick test_relative_matching;
          Alcotest.test_case "relative order" `Quick test_relative_order_matters;
          Alcotest.test_case "end-of-path" `Quick test_end_of_path_matching;
          Alcotest.test_case "length" `Quick test_length_matching;
          Alcotest.test_case "Table 1" `Quick test_table_1;
          Alcotest.test_case "epoch reset" `Quick test_epoch_reset;
          Alcotest.test_case "inline constraints" `Quick test_inline_constraints;
        ] );
      ( "properties",
        List.map Gen_helpers.to_alcotest
          [
            prop_matching_agrees_with_naive;
            prop_deep_matching_agrees_with_naive;
            prop_flat_agrees_with_listslot;
            prop_deep_flat_agrees_with_listslot;
            prop_run_batch_agrees;
          ] );
    ]
