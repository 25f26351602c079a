(* Tests for the publication encoding of document paths (Section 3.3). *)

open Pf_core

(* Example 1: e = (a,b,c,a,b,c) ->
   (length,6),(a^1,1),(b^1,2),(c^1,3),(a^2,4),(b^2,5),(c^2,6) *)
let test_example_1 () =
  let pub = Publication.of_tags [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  Alcotest.(check int) "length" 6 pub.Publication.length;
  let expect = [ "a", 1, 1; "b", 1, 2; "c", 1, 3; "a", 2, 4; "b", 2, 5; "c", 2, 6 ] in
  List.iteri
    (fun i (tag, occurrence, pos) ->
      let tu = pub.Publication.tuples.(i) in
      Alcotest.(check string) "tag" tag (Symbol.name tu.Publication.tag);
      Alcotest.(check int) "occurrence" occurrence tu.Publication.occurrence;
      Alcotest.(check int) "pos" pos tu.Publication.pos)
    expect

let test_pp () =
  let pub = Publication.of_tags [ "a"; "b"; "a" ] in
  Alcotest.(check string) "paper notation"
    "(length,3), (a^1,1), (b^1,2), (a^2,3)"
    (Format.asprintf "%a" Publication.pp pub)

let test_pos_of_occurrence () =
  let pub = Publication.of_tags [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  let sym = Symbol.intern in
  Alcotest.(check (option int)) "a^2" (Some 4)
    (Publication.pos_of_occurrence pub ~tag:(sym "a") ~occurrence:2);
  Alcotest.(check (option int)) "c^1" (Some 3)
    (Publication.pos_of_occurrence pub ~tag:(sym "c") ~occurrence:1);
  Alcotest.(check (option int)) "missing occurrence" None
    (Publication.pos_of_occurrence pub ~tag:(sym "a") ~occurrence:3);
  Alcotest.(check (option int)) "missing tag" None
    (Publication.pos_of_occurrence pub ~tag:(sym "z") ~occurrence:1)

let test_of_path_attrs () =
  let doc = Pf_xml.Sax.parse_document "<a x=\"1\"><b y=\"2\"/></a>" in
  match Pf_xml.Path.of_document doc with
  | [ path ] ->
    let pub = Publication.of_path path in
    Alcotest.(check (list (pair string string))) "attrs at 1" [ "x", "1" ]
      (Publication.attrs_at pub ~pos:1);
    Alcotest.(check (list (pair string string))) "attrs at 2" [ "y", "2" ]
      (Publication.attrs_at pub ~pos:2)
  | _ -> Alcotest.fail "one path expected"

let test_structure () =
  let doc = Pf_xml.Sax.parse_document "<a><b/><b><c/></b></a>" in
  let pubs = List.map Publication.of_path (Pf_xml.Path.of_document doc) in
  let structs = List.map (fun p -> Array.to_list p.Publication.structure) pubs in
  Alcotest.(check (list (list int))) "structure tuples" [ [ 1; 1 ]; [ 1; 2; 1 ] ] structs

(* The streaming state (path scanner plus publication arena) holds O(depth)
   words: after a depth-4d document it retains at most ~4.5x what it
   retains after a depth-d one. Per-length emission arrays once made that
   ~16x, and a 20k-deep document exhausted the heap. *)
let test_arena_linear () =
  let chain depth =
    String.concat "" (List.init depth (fun _ -> "<a>"))
    ^ "<b/>"
    ^ String.concat "" (List.init depth (fun _ -> "</a>"))
  in
  let retained depth =
    let sk = Pf_xml.Path.create_scanner () and ar = Publication.create_arena () in
    let words () = Obj.reachable_words (Obj.repr (sk, ar)) in
    let w0 = words () in
    Pf_xml.Path.stream sk (chain depth) ~f:(fun steps n ->
        let pub = Publication.of_steps ar steps n in
        Alcotest.(check int) "length" (depth + 1) pub.Publication.length);
    words () - w0
  in
  let d = 1000 in
  let small = retained d and large = retained (4 * d) in
  let ratio = float large /. float small in
  if ratio > 4.5 then
    Alcotest.failf "depth %d retains %d words, depth %d retains %d (%.1fx > 4.5x)" d small
      (4 * d) large ratio

let prop_roundtrip_positions =
  QCheck2.Test.make ~name:"pos_of_occurrence inverts tuples" ~count:500
    ~print:Gen_helpers.doc_print Gen_helpers.doc_gen (fun doc ->
      List.for_all
        (fun path ->
          let pub = Publication.of_path path in
          Array.for_all
            (fun tu ->
              Publication.pos_of_occurrence pub ~tag:tu.Publication.tag
                ~occurrence:tu.Publication.occurrence
              = Some tu.Publication.pos)
            pub.Publication.tuples)
        (Pf_xml.Path.of_document doc))

let () =
  Alcotest.run "publication"
    [
      ( "unit",
        [
          Alcotest.test_case "Example 1" `Quick test_example_1;
          Alcotest.test_case "pretty printing" `Quick test_pp;
          Alcotest.test_case "pos_of_occurrence" `Quick test_pos_of_occurrence;
          Alcotest.test_case "attributes" `Quick test_of_path_attrs;
          Alcotest.test_case "structure tuples" `Quick test_structure;
          Alcotest.test_case "streaming arena linear in depth" `Quick test_arena_linear;
        ] );
      "properties", List.map Gen_helpers.to_alcotest [ prop_roundtrip_positions ];
    ]
