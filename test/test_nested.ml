(* Tests for nested path filters (Section 5): decomposition shape and
   end-to-end agreement with the reference evaluator. *)

open Pf_core

let test_paper_decomposition_count () =
  (* /a[*/c[d]/e]//c[d]/e decomposes into four sub-expressions (Fig. 3) *)
  let idx = Predicate_index.create () in
  let n = Nested.create idx in
  Nested.add n ~sid:0 (Pf_xpath.Parser.parse "/a[*/c[d]/e]//c[d]/e");
  Alcotest.(check int) "four sub-expressions" 4 (Nested.sub_expression_count n);
  Alcotest.(check int) "one expression" 1 (Nested.expression_count n);
  Alcotest.(check bool) "not empty" false (Nested.is_empty n)

let test_single_path_rejected () =
  let idx = Predicate_index.create () in
  let n = Nested.create idx in
  match Nested.add n ~sid:0 (Pf_xpath.Parser.parse "/a/b") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "single paths belong in the main pipeline"

let test_wildcard_branch_rejected () =
  let e = Engine.create () in
  match Engine.add_string e "/a/*[d]/b" with
  | exception Encoder.Unsupported _ -> ()
  | _ -> Alcotest.fail "nested filter on wildcard should be Unsupported"

let test_rejected_add_leaves_engine_unchanged () =
  (* a rejected add must not consume a sid or register anything — the
     Pf_intf.FILTER contract the sharded service's replicas depend on.
     "/a[b/*[c]]" is the hard case: the root sub-expression decomposes
     fine and only a nested branch raises. *)
  let e = Engine.create () in
  let sid0 = Engine.add_string e "/a" in
  let exprs = Engine.expression_count e in
  let preds = Engine.distinct_predicate_count e in
  List.iter
    (fun src ->
      match Engine.add_string e src with
      | exception Encoder.Unsupported _ -> ()
      | _ -> Alcotest.fail (src ^ " should be Unsupported"))
    [ "/a/*[d]/b"; "/a[b/*[c]]" ];
  Alcotest.(check int) "expression count unchanged" exprs (Engine.expression_count e);
  Alcotest.(check int) "predicate index unchanged" preds
    (Engine.distinct_predicate_count e);
  let sid1 = Engine.add_string e "/a/b[c]" in
  Alcotest.(check int) "sids stay dense" (sid0 + 1) sid1;
  Alcotest.(check (list int)) "matching unaffected" [ sid0; sid1 ]
    (Engine.match_string e "<a><b><c/></b></a>")

let match_bool src doc_src =
  let e = Engine.create () in
  let sid = Engine.add_string e src in
  List.mem sid (Engine.match_string e doc_src)

let check src doc_src =
  let expected =
    Pf_xpath.Eval.matches (Pf_xpath.Parser.parse src) (Pf_xml.Sax.parse_document doc_src)
  in
  Alcotest.(check bool) (src ^ " on " ^ doc_src) expected (match_bool src doc_src)

let test_simple_nested () =
  check "/a[b]/c" "<a><b/><c/></a>";
  check "/a[b]/c" "<a><c/></a>";
  check "/a[b]/c" "<a><b/></a>";
  check "a[b/c]" "<a><b><c/></b></a>";
  check "a[b/c]" "<a><b/><c/></a>";
  check "/a[//d]/b" "<a><b/><c><d/></c></a>";
  check "/a[//d]/b" "<a><b/><c/></a>"

let test_same_branch_allowed () =
  (* standard XPath semantics: the filter match may lie on the same
     root-to-leaf path as the main match *)
  check "a[b/c]/b/c" "<a><b><c/></b></a>";
  check "a[b]/b" "<a><b/></a>"

let test_sibling_discrimination () =
  (* the filter must hold at the same node the main path passes through *)
  check "/a/b[d]/c" "<a><b><d/></b><b><c/></b></a>";  (* no: d and c under different b *)
  check "/a/b[d]/c" "<a><b><d/><c/></b></a>";  (* yes: same b *)
  check "/a/b[d]/c" "<a><b><d/></b></a>"

let test_paper_example_matching () =
  (* the full Section 5 example expression on documents shaped like Fig. 4 *)
  let expr = "/a[*/c[d]/e]//c[d]/e" in
  check expr "<a><x><c><d/><e/></c></x><c><d/><e/></c></a>";
  check expr "<a><x><c><d/><e/></c></x><c><e/></c></a>";
  check expr "<a><x><c><e/></c></x><c><d/><e/></c></a>";
  check expr "<a><c><d/><e/></c></a>"

let test_multiple_filters_one_step () =
  check "/a[b][c]/d" "<a><b/><c/><d/></a>";
  check "/a[b][c]/d" "<a><b/><d/></a>"

let test_nested_with_attrs () =
  check "/a[b[@x = 1]]/c" "<a><b x=\"1\"/><c/></a>";
  check "/a[b[@x = 1]]/c" "<a><b x=\"2\"/><c/></a>"

let test_nested_with_wildcards_and_descendants () =
  check "/a[*/d]//e" "<a><b><d/></b><c><e/></c></a>";
  check "/a[b//d]/c" "<a><b><x><d/></x></b><c/></a>";
  check "/a[b//d]/c" "<a><b><d/></b><c/></a>"

let test_three_level_nesting () =
  check "/a[b[c[d]]]/e" "<a><b><c><d/></c></b><e/></a>";
  check "/a[b[c[d]]]/e" "<a><b><c/></b><e/></a>";
  check "/a[b[c[d]]]/e" "<a><b><c><d/></c></b></a>"

let test_multiple_children_same_step () =
  check "/a[b][c][d]/e" "<a><b/><c/><d/><e/></a>";
  check "/a[b][c][d]/e" "<a><b/><c/><e/></a>";
  check "/a[b[x]][b[y]]/e" "<a><b><x/></b><b><y/></b><e/></a>";
  check "/a[b[x]][b[y]]/e" "<a><b><x/></b><e/></a>"

let test_nested_on_descendant_step () =
  check "/a//c[d]/e" "<a><x><c><d/><e/></c></x></a>";
  check "/a//c[d]/e" "<a><x><c><e/></c></x><c><d/></c></a>";
  check "a//b[c]" "<a><q><b><c/></b></q></a>"

let test_nested_with_repeated_tags () =
  (* occurrence bookkeeping inside nested matching *)
  check "/a[a/a]/a" "<a><a><a/></a></a>";
  check "/a/a[a[a]]" "<a><a><a><a/></a></a></a>";
  check "/a/a[a[a]]" "<a><a><a/></a></a>"

let test_nested_mixed_attr_levels () =
  check "/a[b[@x = 1]/c[@y = 2]]/d" "<a><b x=\"1\"><c y=\"2\"/></b><d/></a>";
  check "/a[b[@x = 1]/c[@y = 2]]/d" "<a><b x=\"1\"><c y=\"3\"/></b><d/></a>";
  check "/a[b[@x = 1]]/d[@z >= 5]" "<a><b x=\"1\"/><d z=\"7\"/></a>";
  check "/a[b[@x = 1]]/d[@z >= 5]" "<a><b x=\"1\"/><d z=\"3\"/></a>"

let test_nested_text_filters () =
  check "/a[b[text() = 5]]/c" "<a><b>5</b><c/></a>";
  check "/a[b[text() = 5]]/c" "<a><b>6</b><c/></a>"

let test_mixed_with_single_paths () =
  let e = Engine.create () in
  let s1 = Engine.add_string e "/a/b" in
  let s2 = Engine.add_string e "/a[c]/b" in
  let s3 = Engine.add_string e "/a[x]/b" in
  let m = Engine.match_string e "<a><b/><c/></a>" in
  Alcotest.(check (list int)) "mixed" [ s1; s2 ] m;
  ignore s3

(* property: engine with nested expressions = oracle *)
let prop_nested_oracle =
  QCheck2.Test.make ~name:"nested expressions = oracle" ~count:400
    ~print:(fun (p, d) -> Gen_helpers.path_print p ^ " on " ^ Gen_helpers.doc_print d)
    QCheck2.Gen.(pair Gen_helpers.any_path_gen Gen_helpers.doc_gen)
    (fun (p, d) ->
      (* skip expressions the engine declares unsupported *)
      let e = Engine.create () in
      match Engine.add e p with
      | exception Encoder.Unsupported _ -> true
      | sid -> List.mem sid (Engine.match_document e d) = Pf_xpath.Eval.matches p d)

(* property: generated nested workloads agree with the oracle *)
let prop_workload_nested_oracle =
  QCheck2.Test.make ~name:"generated nested workload = oracle" ~count:30
    ~print:(fun seed -> string_of_int seed)
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let dtd = Pf_workload.Dtd.psd_like () in
      let qp =
        { Pf_workload.Xpath_gen.default with
          Pf_workload.Xpath_gen.count = 30; nested_prob = 0.4; seed }
      in
      let paths = Pf_workload.Xpath_gen.generate dtd qp in
      let docs =
        Pf_workload.Xml_gen.generate_many dtd
          { Pf_workload.Xml_gen.default with Pf_workload.Xml_gen.seed = seed + 1 }
          3
      in
      let e = Engine.create () in
      let sids = List.map (fun p -> Engine.add e p, p) paths in
      List.for_all
        (fun d ->
          let m = Engine.match_document e d in
          List.for_all
            (fun (sid, p) -> List.mem sid m = Pf_xpath.Eval.matches p d)
            sids)
        docs)

(* Removing a nested expression retires its sub-expressions: after 1000
   subscribe/remove pairs the live-sub count is back where it started and
   the match sets equal a fresh filter's. *)
let test_remove_retires_subs () =
  let dtd = Pf_workload.Dtd.psd_like () in
  let nested seed count =
    Pf_workload.Xpath_gen.generate dtd
      { Pf_workload.Xpath_gen.default with
        Pf_workload.Xpath_gen.count; nested_prob = 0.5; seed }
    |> List.filter (fun p -> not (Pf_xpath.Ast.is_single_path p))
  in
  let docs =
    Pf_workload.Xml_gen.generate_many dtd
      { Pf_workload.Xml_gen.default with Pf_workload.Xml_gen.seed = 5 }
      6
  in
  let filter () =
    let idx = Predicate_index.create () in
    idx, Nested.create idx, Predicate_index.create_results ()
  in
  let add n ~sid p = match Nested.add n ~sid p with () -> true | exception Encoder.Unsupported _ -> false in
  let run (idx, n, res) d =
    Nested.begin_document n;
    List.iter
      (fun path ->
        let pub = Publication.of_path path in
        Predicate_index.run idx res pub;
        Nested.observe_path n res pub)
      (Pf_xml.Path.of_document d);
    let got = ref [] in
    Nested.finish_document n ~on_match:(fun sid -> got := sid :: !got);
    List.sort compare !got
  in
  let base = List.filteri (fun i _ -> i < 20) (nested 1 60) in
  let ((_, fresh_n, _) as fresh) = filter () in
  let ((_, n, _) as churned) = filter () in
  List.iteri (fun sid p -> ignore (add fresh_n ~sid p : bool); ignore (add n ~sid p : bool)) base;
  let c0 = Nested.sub_expression_count n in
  let churn = List.filteri (fun i _ -> i < 1000) (nested 2 4000) in
  Alcotest.(check int) "1000 churn expressions" 1000 (List.length churn);
  (* subscribe each, keep a window of 50 live, then drain *)
  let added = Queue.create () in
  List.iteri
    (fun i p ->
      let sid = 1000 + i in
      if add n ~sid p then Queue.add sid added;
      if Queue.length added > 50 then
        Alcotest.(check bool) "remove" true (Nested.remove n ~sid:(Queue.pop added));
      if i mod 250 = 0 then ignore (run churned (List.hd docs) : int list))
    churn;
  Alcotest.(check bool) "churn subs were live" true (Nested.sub_expression_count n > c0);
  Queue.iter (fun sid -> Alcotest.(check bool) "drain" true (Nested.remove n ~sid)) added;
  Alcotest.(check bool) "removed once" false (Nested.remove n ~sid:1000);
  Alcotest.(check int) "live subs back to the start" c0 (Nested.sub_expression_count n);
  Alcotest.(check int) "expressions back to the start"
    (Nested.expression_count fresh_n) (Nested.expression_count n);
  Alcotest.(check bool) "some base expression matches" true
    (List.exists (fun d -> run fresh d <> []) docs);
  List.iter
    (fun d -> Alcotest.(check (list int)) "matches = fresh filter" (run fresh d) (run churned d))
    docs

let () =
  Alcotest.run "nested"
    [
      ( "decomposition",
        [
          Alcotest.test_case "paper example count" `Quick test_paper_decomposition_count;
          Alcotest.test_case "single path rejected" `Quick test_single_path_rejected;
          Alcotest.test_case "wildcard branch rejected" `Quick test_wildcard_branch_rejected;
          Alcotest.test_case "rejected add leaves engine unchanged" `Quick
            test_rejected_add_leaves_engine_unchanged;
        ] );
      ( "matching",
        [
          Alcotest.test_case "simple nested" `Quick test_simple_nested;
          Alcotest.test_case "same-branch matches allowed" `Quick test_same_branch_allowed;
          Alcotest.test_case "sibling discrimination" `Quick test_sibling_discrimination;
          Alcotest.test_case "paper example" `Quick test_paper_example_matching;
          Alcotest.test_case "multiple filters on a step" `Quick test_multiple_filters_one_step;
          Alcotest.test_case "nested with attributes" `Quick test_nested_with_attrs;
          Alcotest.test_case "wildcards and descendants" `Quick
            test_nested_with_wildcards_and_descendants;
          Alcotest.test_case "three-level nesting" `Quick test_three_level_nesting;
          Alcotest.test_case "multiple children, one step" `Quick test_multiple_children_same_step;
          Alcotest.test_case "nested on descendant step" `Quick test_nested_on_descendant_step;
          Alcotest.test_case "repeated tags" `Quick test_nested_with_repeated_tags;
          Alcotest.test_case "attrs across levels" `Quick test_nested_mixed_attr_levels;
          Alcotest.test_case "text() inside nested" `Quick test_nested_text_filters;
          Alcotest.test_case "mixed with single paths" `Quick test_mixed_with_single_paths;
          Alcotest.test_case "remove retires sub-expressions" `Quick test_remove_retires_subs;
        ] );
      ( "properties",
        List.map Gen_helpers.to_alcotest
          [ prop_nested_oracle; prop_workload_nested_oracle ] );
    ]
