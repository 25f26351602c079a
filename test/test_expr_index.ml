(* Tests for the expression organizations (Section 4.2.2): the four
   variants must report identical match sets, while differing in how many
   occurrence determination runs they need. *)

open Pf_core

let variants =
  Expr_index.[ Basic; Prefix_covering; Access_predicate; Shared ]

(* Build one index per variant over the same expressions and evaluate
   against the same publication; returns (variant, sorted sids, runs). *)
let eval_all exprs tags =
  let idx = Predicate_index.create () in
  let encoded =
    List.map (fun src -> Array.map (Predicate_index.intern idx) (Encoder.encode_string src).Encoder.preds) exprs
  in
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags tags);
  List.map
    (fun variant ->
      let e = Expr_index.create variant in
      List.iteri (fun sid pids -> Expr_index.add e ~sid ~pids) encoded;
      let matched = ref [] in
      Expr_index.eval e res ~sticky:false ~doc_tag:0
        ~on_match:(fun sid -> matched := sid :: !matched);
      variant, List.sort compare !matched, Expr_index.occurrence_runs e)
    variants

let test_variants_agree_simple () =
  let exprs = [ "/a/b"; "/a/b/c"; "/a/b/c/d"; "a//c"; "/a/x"; "b/c" ] in
  let results = eval_all exprs [ "a"; "b"; "c" ] in
  let expected = [ 0; 1; 3; 5 ] in
  List.iter
    (fun (v, sids, _) ->
      Alcotest.(check (list int)) (Expr_index.variant_name v) expected sids)
    results

let test_covering_reduces_runs () =
  (* /a/b is a predicate-prefix of /a/b/c, which matches: with prefix
     covering the shorter expression must not get its own run *)
  let exprs = [ "/a/b"; "/a/b/c" ] in
  let results = eval_all exprs [ "a"; "b"; "c" ] in
  let runs v = match List.find (fun (v', _, _) -> v' = v) results with _, _, r -> r in
  Alcotest.(check int) "basic runs both" 2 (runs Expr_index.Basic);
  Alcotest.(check int) "pc runs the longest only" 1 (runs Expr_index.Prefix_covering);
  Alcotest.(check int) "pc-ap runs the longest only" 1 (runs Expr_index.Access_predicate);
  Alcotest.(check int) "shared needs no runs" 0 (runs Expr_index.Shared)

let test_access_predicate_prunes () =
  (* no x in the path: the whole /x/... cluster is skipped without any
     occurrence run; basic still runs nothing (pid check fails) but pc
     walks the trie *)
  let exprs = [ "/x/y"; "/x/y/z"; "/x/w" ] in
  let results = eval_all exprs [ "a"; "b" ] in
  List.iter
    (fun (v, sids, runs) ->
      Alcotest.(check (list int)) (Expr_index.variant_name v ^ " no match") [] sids;
      Alcotest.(check int) (Expr_index.variant_name v ^ " no runs") 0 runs)
    results

let test_duplicates_share () =
  let e = Expr_index.create Expr_index.Access_predicate in
  let idx = Predicate_index.create () in
  let pids = Array.map (Predicate_index.intern idx) (Encoder.encode_string "/a/b").Encoder.preds in
  Expr_index.add e ~sid:0 ~pids;
  Expr_index.add e ~sid:1 ~pids;
  Expr_index.add e ~sid:2 ~pids;
  Alcotest.(check int) "3 expressions" 3 (Expr_index.expression_count e);
  Alcotest.(check int) "2 trie nodes" 2 (Expr_index.node_count e);
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags [ "a"; "b" ]);
  let matched = ref [] in
  Expr_index.eval e res ~sticky:false ~doc_tag:0
        ~on_match:(fun sid -> matched := sid :: !matched);
  Alcotest.(check (list int)) "all three sids" [ 0; 1; 2 ] (List.sort compare !matched);
  Alcotest.(check int) "one run serves all duplicates" 1 (Expr_index.occurrence_runs e)

let test_variant_names () =
  List.iter
    (fun v ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Expr_index.variant_name v))
        (Option.map Expr_index.variant_name (Expr_index.variant_of_name (Expr_index.variant_name v))))
    variants;
  Alcotest.(check bool) "unknown" true (Expr_index.variant_of_name "bogus" = None)

let test_empty_pids_rejected () =
  let e = Expr_index.create Expr_index.Basic in
  match Expr_index.add e ~sid:0 ~pids:[||] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "empty pid sequence should be rejected"

(* property: on random single-path workloads and random linear paths, all
   four variants produce the same match set, and it equals the per-
   expression ground truth *)
let prop_variants_agree =
  let open QCheck2 in
  Test.make ~name:"all variants = ground truth" ~count:500
    ~print:(fun (paths, tags) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ String.concat "/" tags)
    Gen.(
      pair
        (list_size (int_range 1 12) Gen_helpers.single_path_gen)
        (list_size (int_range 1 7) Gen_helpers.tag_gen))
    (fun (paths, tags) ->
      let idx = Predicate_index.create () in
      let encoded =
        List.map
          (fun p -> Array.map (Predicate_index.intern idx) (Encoder.encode p).Encoder.preds)
          paths
      in
      let res = Predicate_index.create_results () in
      let pub = Publication.of_tags tags in
      Predicate_index.run idx res pub;
      let truth =
        List.mapi
          (fun sid pids ->
            let rs = Array.map (Predicate_index.get res) pids in
            if Array.exists (fun l -> l = []) rs then None
            else if Occurrence.matches rs then Some sid
            else None)
          encoded
        |> List.filter_map Fun.id
      in
      List.for_all
        (fun variant ->
          let e = Expr_index.create variant in
          List.iteri (fun sid pids -> Expr_index.add e ~sid ~pids) encoded;
          let matched = ref [] in
          Expr_index.eval e res ~sticky:false ~doc_tag:0
        ~on_match:(fun sid -> matched := sid :: !matched);
          List.sort compare !matched = truth)
        variants)

(* Build-side changes reach the flat image: a rebuild happens on the first
   eval after an add that creates a trie node or fills a node the image
   left out (pruned), and on nothing else. *)
let test_image_rebuilds () =
  let idx = Predicate_index.create () in
  let pids src =
    Array.map (Predicate_index.intern idx) (Encoder.encode_string src).Encoder.preds
  in
  let m = Expr_index.make_metrics () in
  let e = Expr_index.create ~metrics:m Expr_index.Access_predicate in
  let res = Predicate_index.create_results () in
  let eval_on tags =
    Predicate_index.run idx res (Publication.of_tags tags);
    let matched = ref [] in
    Expr_index.eval e res ~sticky:false ~doc_tag:0 ~on_match:(fun s -> matched := s :: !matched);
    List.sort compare !matched
  in
  let rebuilds () = Pf_obs.Counter.get m.Expr_index.rebuilds in
  let abc = pids "/a/b/c" and ab = pids "/a/b" in
  Expr_index.add e ~sid:0 ~pids:ab;
  Alcotest.(check (list int)) "first eval" [ 0 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "first eval builds" 1 (rebuilds ());
  Expr_index.add e ~sid:1 ~pids:ab;
  Alcotest.(check (list int)) "duplicate matches" [ 0; 1 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "duplicate: no rebuild" 1 (rebuilds ());
  Expr_index.add e ~sid:2 ~pids:abc;
  Alcotest.(check (list int)) "longer" [ 0; 1; 2 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "new node: rebuild" 2 (rebuilds ());
  Alcotest.(check bool) "remove" true (Expr_index.remove e ~sid:2 ~pids:abc);
  Alcotest.(check (list int)) "removed" [ 0; 1 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "remove: no rebuild" 2 (rebuilds ());
  Expr_index.add e ~sid:3 ~pids:(pids "/x");
  Alcotest.(check (list int)) "unrelated" [ 0; 1 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "new root: rebuild (prunes the dead leaf)" 3 (rebuilds ());
  Expr_index.add e ~sid:4 ~pids:abc;
  Alcotest.(check (list int)) "re-added" [ 0; 1; 4 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "pruned node refilled: rebuild" 4 (rebuilds ());
  Alcotest.(check (list int)) "steady state" [ 0; 1; 4 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "no change: no rebuild" 4 (rebuilds ());
  (* a root left without sids is dropped by the next rebuild: only the
     new dead root /q costs a skip *)
  Alcotest.(check bool) "remove /x" true (Expr_index.remove e ~sid:3 ~pids:(pids "/x"));
  Expr_index.add e ~sid:5 ~pids:(pids "/q");
  let skips0 = Pf_obs.Counter.get m.Expr_index.access_skips in
  Alcotest.(check (list int)) "after pruning" [ 0; 1; 4 ] (eval_on [ "a"; "b"; "c" ]);
  Alcotest.(check int) "pruned root not walked" 1
    (Pf_obs.Counter.get m.Expr_index.access_skips - skips0)

(* Candidate rows are copied only for runs: a chain whose run happens
   fills each of its rows once, a cluster ruled out fills none. *)
let test_rows_filled_lazily () =
  let idx = Predicate_index.create () in
  let pids src =
    Array.map (Predicate_index.intern idx) (Encoder.encode_string src).Encoder.preds
  in
  let long = pids "/a/b/c/d" and dead = pids "/x/y/z" in
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags [ "a"; "b"; "c"; "d" ]);
  List.iter
    (fun variant ->
      let m = Expr_index.make_metrics () in
      let e = Expr_index.create ~metrics:m variant in
      Expr_index.add e ~sid:0 ~pids:long;
      Expr_index.add e ~sid:1 ~pids:dead;
      Expr_index.eval e res ~sticky:false ~doc_tag:0 ~on_match:ignore;
      Alcotest.(check int)
        (Expr_index.variant_name variant ^ " rows = chain length")
        (Array.length long)
        (Pf_obs.Counter.get m.Expr_index.rows_filled))
    Expr_index.[ Prefix_covering; Access_predicate ]

(* Churn: random interleavings of add, remove and single-path evaluation,
   paths grouped into documents that share one doc tag. Every variant,
   sticky or not, must report per path only sids that match it (each at
   most once), exactly those when not sticky, and per document the union
   of what matched. Pins image rebuilds, pruning, the lazy-row watermark
   and sticky marks carried across a rebuild or reset by an add. *)
type churn_op = Add of int | Remove of int | Path of string list | New_doc

let churn_op_gen npool =
  let open QCheck2.Gen in
  frequency
    [
      3, map (fun k -> Add k) (int_bound (npool - 1));
      2, map (fun k -> Remove k) (int_bound 15);
      4, map (fun tags -> Path tags) (list_size (int_range 1 6) Gen_helpers.tag_gen);
      1, return New_doc;
    ]

let churn_op_print = function
  | Add k -> Printf.sprintf "add #%d" k
  | Remove k -> Printf.sprintf "remove live[%d]" k
  | Path tags -> "path " ^ String.concat "/" tags
  | New_doc -> "new doc"

let churn_agrees pool ops (variant, sticky) =
  let idx = Predicate_index.create () in
  let pids =
    Array.map (fun p -> Array.map (Predicate_index.intern idx) (Encoder.encode p).Encoder.preds) pool
  in
  let e = Expr_index.create variant in
  let res = Predicate_index.create_results () in
  let live = ref [] and next_sid = ref 0 and doc_tag = ref 1 in
  let doc_truth = ref [] and doc_got = ref [] and ok = ref true in
  let end_doc () =
    if List.sort_uniq compare !doc_truth <> List.sort_uniq compare !doc_got then ok := false;
    doc_truth := [];
    doc_got := []
  in
  List.iter
    (function
      | Add k ->
        Expr_index.add e ~sid:!next_sid ~pids:pids.(k);
        live := (!next_sid, k) :: !live;
        incr next_sid
      | Remove j -> (
        match !live with
        | [] -> ()
        | l ->
          let sid, k = List.nth l (j mod List.length l) in
          if not (Expr_index.remove e ~sid ~pids:pids.(k)) then ok := false;
          if Expr_index.remove e ~sid ~pids:pids.(k) then ok := false;
          live := List.filter (fun (s, _) -> s <> sid) l)
      | New_doc ->
        end_doc ();
        incr doc_tag
      | Path tags ->
        Predicate_index.run idx res (Publication.of_tags tags);
        let truth =
          List.filter_map
            (fun (sid, k) ->
              let rs = Array.map (Predicate_index.get res) pids.(k) in
              if Array.for_all (fun l -> l <> []) rs && Occurrence.matches rs then Some sid
              else None)
            !live
          |> List.sort compare
        in
        let got = ref [] in
        Expr_index.eval e res ~sticky ~doc_tag:!doc_tag ~on_match:(fun s -> got := s :: !got);
        let got = List.sort compare !got in
        if List.sort_uniq compare got <> got then ok := false;
        if not (List.for_all (fun s -> List.mem s truth) got) then ok := false;
        if (not sticky) && got <> truth then ok := false;
        doc_truth := truth @ !doc_truth;
        doc_got := got @ !doc_got)
    ops;
  end_doc ();
  !ok && Expr_index.expression_count e = List.length !live

let prop_churn =
  let open QCheck2 in
  Test.make ~name:"churn: all variants = ground truth under add/remove/eval" ~count:300
    ~print:(fun (pool, ops) ->
      String.concat " ; " (List.mapi (fun i p -> Printf.sprintf "#%d %s" i (Gen_helpers.path_print p)) pool)
      ^ " || " ^ String.concat " ; " (List.map churn_op_print ops))
    Gen.(
      list_size (int_range 1 8) Gen_helpers.single_path_gen >>= fun pool ->
      pair (return pool) (list_size (int_range 1 40) (churn_op_gen (List.length pool))))
    (fun (pool, ops) ->
      let pool = Array.of_list pool in
      List.for_all (churn_agrees pool ops)
        (List.concat_map (fun v -> [ v, false; v, true ]) variants))

let () =
  Alcotest.run "expr_index"
    [
      ( "unit",
        [
          Alcotest.test_case "variants agree" `Quick test_variants_agree_simple;
          Alcotest.test_case "covering reduces runs" `Quick test_covering_reduces_runs;
          Alcotest.test_case "access predicate prunes" `Quick test_access_predicate_prunes;
          Alcotest.test_case "duplicates share structure" `Quick test_duplicates_share;
          Alcotest.test_case "variant names" `Quick test_variant_names;
          Alcotest.test_case "empty pids rejected" `Quick test_empty_pids_rejected;
          Alcotest.test_case "image rebuilds on structural change only" `Quick
            test_image_rebuilds;
          Alcotest.test_case "rows filled only for runs" `Quick test_rows_filled_lazily;
        ] );
      "properties", List.map Gen_helpers.to_alcotest [ prop_variants_agree; prop_churn ];
    ]
