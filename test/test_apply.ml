(* S5/E2: the three update-application semantics of §3.2 and the
   conflict-detection rules, including the qcheck property behind the
   conflict-detection design: a ∆ that passes verification yields the
   same store under *every* permutation. *)

open Helpers
module Store = Xqb_store.Store
module Update = Core.Update
module Apply = Core.Apply
module Conflict = Core.Conflict

(* Hand-built deltas: ops wrapped into requests (no provenance). *)
let rq = Update.make
let rqs = List.map Update.make

(* Build a store with a root <x/> plus n fresh <e{i}/> roots to
   insert. *)
let setup n =
  let store = Store.create () in
  let doc = Store.load_string store "<x><a/><b/></x>" in
  let x = List.hd (Store.children store doc) in
  let fresh = List.init n (fun i -> Store.make_element store (qn (Printf.sprintf "e%d" i))) in
  (store, x, fresh)

let serialize store x = Store.serialize store x

let ordered_tests =
  [
    tc "ordered applies in delta order" `Quick (fun () ->
        let store, x, fresh = setup 3 in
        let delta =
          List.map
            (fun n ->
              rq (Update.Insert { nodes = [ n ]; parent = x; position = Update.Last }))
            fresh
        in
        Apply.apply store Apply.Ordered delta;
        check Alcotest.string "xml"
          "<x><a></a><b></b><e0></e0><e1></e1><e2></e2></x>"
          (serialize store x));
    tc "failure rolls back everything" `Quick (fun () ->
        let store, x, fresh = setup 2 in
        let before = serialize store x in
        let bad =
          (* second request inserts a node that just got a parent *)
          rqs
            [
              Update.Insert { nodes = [ List.nth fresh 0 ]; parent = x; position = Update.Last };
              Update.Insert { nodes = [ List.nth fresh 0 ]; parent = x; position = Update.Last };
            ]
        in
        (match Apply.apply store Apply.Ordered bad with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
        check Alcotest.string "unchanged" before (serialize store x);
        check (Alcotest.list Alcotest.string) "invariants" [] (Store.validate store));
    tc "before/after anchors resolve at application time" `Quick (fun () ->
        let store, x, fresh = setup 2 in
        let a = List.hd (Store.children store x) in
        let delta =
          rqs
            [
              Update.Insert { nodes = [ List.nth fresh 0 ]; parent = x; position = Update.After a };
              Update.Insert { nodes = [ List.nth fresh 1 ]; parent = x; position = Update.Before a };
            ]
        in
        Apply.apply store Apply.Ordered delta;
        check Alcotest.string "xml"
          "<x><e1></e1><a></a><e0></e0><b></b></x>"
          (serialize store x));
  ]

let nondet_tests =
  [
    tc "nondeterministic permutes by seed" `Quick (fun () ->
        (* With enough independent same-slot inserts, two different
           seeds are overwhelmingly likely to give different orders;
           the same seed must give the same order. *)
        let run seed =
          let store, x, fresh = setup 6 in
          let delta =
            List.map
              (fun n ->
                rq (Update.Insert { nodes = [ n ]; parent = x; position = Update.Last }))
              fresh
          in
          Apply.apply ~rand_state:(Random.State.make [| seed |]) store
            Apply.Nondeterministic delta;
          serialize store x
        in
        check Alcotest.string "same seed, same result" (run 7) (run 7);
        check Alcotest.bool "different seeds differ somewhere" true
          (List.exists (fun s -> run s <> run 7) [ 1; 2; 3; 4; 5 ]));
    tc "order-independent deltas agree across seeds" `Quick (fun () ->
        let run seed =
          let store, x, _ = setup 0 in
          let kids = Store.children store x in
          let delta = List.map (fun k -> rq (Update.Delete k)) kids in
          Apply.apply ~rand_state:(Random.State.make [| seed |]) store
            Apply.Nondeterministic delta;
          serialize store x
        in
        check Alcotest.string "same" (run 1) (run 42));
  ]

let conflict_rules =
  let insert_last nodes parent =
    rq (Update.Insert { nodes; parent; position = Update.Last })
  in
  [
    tc "R1: two inserts on the same slot" `Quick (fun () ->
        check Alcotest.bool "conflict" false
          (Conflict.is_conflict_free [ insert_last [ 10 ] 1; insert_last [ 11 ] 1 ]));
    tc "R1: different parents are fine" `Quick (fun () ->
        check Alcotest.bool "free" true
          (Conflict.is_conflict_free [ insert_last [ 10 ] 1; insert_last [ 11 ] 2 ]));
    tc "R1: first vs last on same parent are distinct slots" `Quick (fun () ->
        check Alcotest.bool "free" true
          (Conflict.is_conflict_free
             [
               rq (Update.Insert { nodes = [ 10 ]; parent = 1; position = Update.First });
               insert_last [ 11 ] 1;
             ]));
    tc "R2: insert anchored on a deleted node" `Quick (fun () ->
        check Alcotest.bool "conflict" false
          (Conflict.is_conflict_free
             (rqs
                [
                  Update.Insert { nodes = [ 10 ]; parent = 1; position = Update.After 5 };
                  Update.Delete 5;
                ]));
        (* in either order *)
        check Alcotest.bool "conflict" false
          (Conflict.is_conflict_free
             (rqs
                [
                  Update.Delete 5;
                  Update.Insert { nodes = [ 10 ]; parent = 1; position = Update.Before 5 };
                ])));
    tc "R3: same node inserted twice" `Quick (fun () ->
        check Alcotest.bool "conflict" false
          (Conflict.is_conflict_free [ insert_last [ 10 ] 1; insert_last [ 10 ] 2 ]));
    tc "R4: node both inserted and deleted" `Quick (fun () ->
        check Alcotest.bool "conflict" false
          (Conflict.is_conflict_free [ insert_last [ 10 ] 1; rq (Update.Delete 10) ]);
        check Alcotest.bool "conflict" false
          (Conflict.is_conflict_free [ rq (Update.Delete 10); insert_last [ 10 ] 1 ]));
    tc "R5: diverging renames" `Quick (fun () ->
        check Alcotest.bool "conflict" false
          (Conflict.is_conflict_free
             (rqs [ Update.Rename (3, qn "a"); Update.Rename (3, qn "b") ]));
        check Alcotest.bool "same name ok" true
          (Conflict.is_conflict_free
             (rqs [ Update.Rename (3, qn "a"); Update.Rename (3, qn "a") ])));
    tc "independent mix is conflict-free" `Quick (fun () ->
        check Alcotest.bool "free" true
          (Conflict.is_conflict_free
             [
               insert_last [ 10 ] 1;
               rq (Update.Insert { nodes = [ 11 ]; parent = 2; position = Update.First });
               rq (Update.Delete 7);
               rq (Update.Delete 7);
               rq (Update.Rename (8, qn "n"));
             ]));
    tc "deletes of the same node commute" `Quick (fun () ->
        check Alcotest.bool "free" true
          (Conflict.is_conflict_free (rqs [ Update.Delete 7; Update.Delete 7 ])));
  ]

let conflict_engine =
  [
    expect_error "conflicting snap fails"
      {|let $x := <x/>
        return snap conflict { insert {<a/>} into {$x}, insert {<b/>} into {$x} }|}
      (fun e -> match e with Core.Conflict.Conflict_error _ -> true | _ -> false);
    expect "store untouched after rejected conflict snap"
      {|let $x := <x><keep/></x>
        let $r := (
          (: trap the conflict in a sibling snap: not expressible in
             the language, so check from the outside that a rejected
             snap earlier in the program leaves the store intact —
             covered by the engine test; here verify the positive
             case :)
          snap conflict { insert {<a/>} into {$x}, rename {$x/keep} to {'kept'} }
        )
        return ($x/kept is $x/*[1], count($x/a))|}
      "true 1";
    expect "conflict-free snap applies in any order"
      {|let $x := <x><a/><b/></x>
        return (snap conflict { delete {$x/a}, rename {$x/b} to {'z'} }, $x)|}
      "<x><z></z></x>";
  ]

(* -- The E2 property: conflict-free ⇒ permutation-independent ------- *)

(* Generate random deltas over a fixed store shape, apply under every
   permutation (n ≤ 4 requests): if the conflict checker accepts, all
   permutations must agree. This is the soundness property of the
   §3.2 conflict-detection semantics. *)
let gen_requests =
  let open QCheck2.Gen in
  list_size (int_range 1 4)
    (oneof
       [
         map2 (fun parent fresh -> `Ins (parent, fresh)) (int_bound 3) (int_bound 3);
         map (fun t -> `Del t) (int_bound 3);
         map2 (fun t n -> `Ren (t, n)) (int_bound 3) (oneofl [ "m"; "n" ]);
         map2 (fun t v -> `SetV (t, v)) (int_bound 3) (oneofl [ "u"; "w" ]);
       ])

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y != x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let conflict_free_is_order_independent =
  qtest ~count:300 "conflict-free deltas commute (E2 soundness)" gen_requests
    (fun spec ->
      (* Materialize the delta against a fresh store; node ids are
         deterministic, so the same spec builds the same delta in
         every run. *)
      let build () =
        let store = Store.create () in
        let doc = Store.load_string store "<r><p0/><p1/><p2/><p3/></r>" in
        let r = List.hd (Store.children store doc) in
        let parents = Store.children store r in
        let fresh = List.init 4 (fun i -> Store.make_element store (qn (Printf.sprintf "f%d" i))) in
        let delta =
          rqs
            (List.map
               (function
                 | `Ins (p, f) ->
                   Update.Insert
                     {
                       nodes = [ List.nth fresh f ];
                       parent = List.nth parents p;
                       position = Update.Last;
                     }
                 | `Del t -> Update.Delete (List.nth parents t)
                 | `Ren (t, n) -> Update.Rename (List.nth parents t, qn n)
                 | `SetV (t, v) -> Update.Set_value (List.nth parents t, v))
               spec)
        in
        (store, doc, delta)
      in
      let _, _, delta0 = build () in
      if not (Conflict.is_conflict_free delta0) then true (* property vacuous *)
      else begin
        let results =
          List.map
            (fun perm ->
              let store, doc, delta = build () in
              let permuted = List.map (fun i -> List.nth delta i) perm in
              match Apply.apply store Apply.Ordered permuted with
              | () -> Some (Store.serialize store doc)
              | exception _ -> None)
            (permutations (List.init (List.length delta0) Fun.id))
        in
        match results with
        | [] -> true
        | first :: rest ->
          if List.for_all (fun r -> r = first) rest then true
          else
            QCheck2.Test.fail_reportf
              "conflict-free delta diverged under permutation: %s"
              (Update.delta_to_string delta0)
      end)

(* The checker itself must not depend on ∆ order: acceptance of a ∆
   is a property of its *set* of requests (it decides whether all
   permutations commute), so permuting the input must not change the
   verdict. *)
let checker_permutation_insensitive =
  qtest ~count:200 "Conflict.check is permutation-insensitive"
    QCheck2.Gen.(
      pair gen_requests (int_bound 1000))
    (fun (spec, seed) ->
      let mk specs =
        rqs
          (List.map
             (function
               | `Ins (p, f) ->
                 Update.Insert
                   { nodes = [ 100 + f ]; parent = p; position = Update.Last }
               | `Del t -> Update.Delete t
               | `Ren (t, n) -> Update.Rename (t, qn n)
               | `SetV (t, v) -> Update.Set_value (t, v))
             specs)
      in
      let delta = mk spec in
      let rand = Random.State.make [| seed |] in
      let arr = Array.of_list delta in
      for i = Array.length arr - 1 downto 1 do
        let j = Random.State.int rand (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      Conflict.is_conflict_free delta
      = Conflict.is_conflict_free (Array.to_list arr))

(* -- R1–R6 matrix --------------------------------------------------
   Each conflict rule gets a pair of deltas over the same fixture: a
   conflicting one (must be rejected, leaving the store byte-identical)
   and a conflict-free sibling (must yield the same store under the
   ordered, reversed and several seeded permutations, and under the
   conflict-detection mode itself). *)

type matrix_ctx = {
  store : Store.t;
  doc : Store.node_id;
  x : Store.node_id;
  a : Store.node_id;
  b : Store.node_id;
  c : Store.node_id;
  fresh : Store.node_id list;
}

(* Node ids are allocation-ordered, so rebuilding the fixture gives
   the same ids every time — deltas built against one instance are
   valid against any other. *)
let matrix_fixture () =
  let store = Store.create () in
  let doc = Store.load_string store "<x><a>1</a><b>2</b><c>3</c></x>" in
  let x = List.hd (Store.children store doc) in
  let kids = Store.children store x in
  {
    store;
    doc;
    x;
    a = List.nth kids 0;
    b = List.nth kids 1;
    c = List.nth kids 2;
    fresh =
      List.init 3 (fun i ->
          Store.make_element store (qn (Printf.sprintf "f%d" i)));
  }

let shuffle seed l =
  let arr = Array.of_list l in
  let rand = Random.State.make [| seed |] in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let matrix_cases =
  let ins ?(pos = Update.Last) n parent =
    rq (Update.Insert { nodes = [ n ]; parent; position = pos })
  in
  let f i m = List.nth m.fresh i in
  [
    ( "R1 two inserts on one slot",
      (fun m -> [ ins (f 0 m) m.x; ins (f 1 m) m.x ]),
      fun m ->
        [
          ins ~pos:Update.First (f 0 m) m.x;
          ins (f 1 m) m.x;
          ins ~pos:(Update.After m.a) (f 2 m) m.x;
        ] );
    ( "R2 insert anchored on a deleted node",
      (fun m -> [ ins ~pos:(Update.Before m.a) (f 0 m) m.x; rq (Update.Delete m.a) ]),
      fun m -> [ ins ~pos:(Update.After m.a) (f 0 m) m.x; rq (Update.Delete m.b) ]
    );
    ( "R3 one node inserted twice",
      (fun m -> [ ins (f 0 m) m.a; ins (f 0 m) m.b ]),
      fun m -> [ ins (f 0 m) m.a; ins (f 1 m) m.b ] );
    ( "R4 node both inserted and deleted",
      (fun m -> [ ins (f 0 m) m.x; rq (Update.Delete (f 0 m)) ]),
      fun m -> [ ins (f 0 m) m.x; rq (Update.Delete m.c) ] );
    ( "R5 diverging renames",
      (fun m -> rqs [ Update.Rename (m.a, qn "m"); Update.Rename (m.a, qn "n") ]),
      fun m ->
        rqs
          [
            Update.Rename (m.a, qn "m");
            Update.Rename (m.a, qn "m");
            Update.Rename (m.b, qn "n");
          ] );
    ( "R6 diverging set-values",
      (fun m -> rqs [ Update.Set_value (m.a, "u"); Update.Set_value (m.a, "w") ]),
      fun m ->
        rqs
          [
            Update.Set_value (m.a, "u");
            Update.Set_value (m.a, "u");
            Update.Set_value (m.b, "w");
          ] );
    ( "R6 set-value vs insert into the same element",
      (fun m -> [ rq (Update.Set_value (m.a, "u")); ins (f 0 m) m.a ]),
      fun m -> [ rq (Update.Set_value (m.a, "u")); ins (f 0 m) m.b ] );
    ( "R6 set-value vs delete of the same node",
      (fun m -> rqs [ Update.Set_value (m.a, "u"); Update.Delete m.a ]),
      fun m -> rqs [ Update.Set_value (m.a, "u"); Update.Delete m.b ] );
  ]

let matrix_tests =
  List.concat_map
    (fun (name, bad, good) ->
      [
        tc (name ^ ": rejected, store byte-identical") `Quick (fun () ->
            let m = matrix_fixture () in
            let before = Store.serialize m.store m.doc in
            (match Apply.apply m.store Apply.Conflict_detection (bad m) with
            | () -> Alcotest.fail "expected Conflict"
            | exception Conflict.Conflict_error _ -> ());
            check Alcotest.string "byte-identical" before
              (Store.serialize m.store m.doc);
            check
              (Alcotest.list Alcotest.string)
              "invariants hold" [] (Store.validate m.store));
        tc (name ^ ": conflict-free sibling commutes") `Quick (fun () ->
            let m0 = matrix_fixture () in
            check Alcotest.bool "accepted" true
              (Conflict.is_conflict_free (good m0));
            let run permute =
              let m = matrix_fixture () in
              Apply.apply m.store Apply.Ordered (permute (good m));
              Store.serialize m.store m.doc
            in
            let reference = run Fun.id in
            List.iteri
              (fun i result ->
                check Alcotest.string
                  (Printf.sprintf "permutation %d" i)
                  reference result)
              (run List.rev
              :: List.map (fun seed -> run (shuffle seed)) [ 3; 17; 29; 41 ]);
            (* and the mode under test itself, which permutes
               internally after verification *)
            let m = matrix_fixture () in
            Apply.apply
              ~rand_state:(Random.State.make [| 99 |])
              m.store Apply.Conflict_detection (good m);
            check Alcotest.string "conflict-detection mode agrees" reference
              (Store.serialize m.store m.doc));
      ])
    matrix_cases

(* Batched ∆ application ≡ one request at a time. A random ∆ mixes
   delete runs (several parents, attributes and children, duplicates,
   targets nested in an earlier target's subtree; ascending, descending
   or shuffled) with inserts and renames, under each mode, journaling
   on or off. The reference applies the same permutation (a copy of
   [Apply]'s Fisher-Yates on the same seed) request by request through
   [Update.apply_request], i.e. one [Store.detach] per delete. *)
(* [Apply]'s Fisher-Yates, the reference permutation *)
let fisher_yates rs arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

let gen_delete_runs =
  let open QCheck2.Gen in
  let* width = int_range 1 3 and* order = int_bound 2 and* mode = int_bound 2 in
  let* targets = list_size (int_range 1 25) nat
  and* others = list_size (int_bound 5) (triple bool nat nat) in
  let* seed = nat and* journal = bool in
  return (width, order, mode, targets, others, seed, journal)

let batched_equals_one_by_one =
  qtest ~count:300 "batched delete runs = one-by-one application" gen_delete_runs
    (fun (width, order, mode, targets, others, seed, journal) ->
      let mode =
        match mode with 0 -> Apply.Ordered | 1 -> Apply.Nondeterministic | _ -> Apply.Conflict_detection
      in
      (* the same spec builds the same store and ∆ (ids are sequential) *)
      let build () =
        let store = Store.create () in
        if journal then Store.journal_start store;
        let kid i = Printf.sprintf "<k i=\"%d\"><g><h/></g>t</k>" i in
        let parent p =
          Printf.sprintf "<p a=\"%d\" b=\"x\">%s</p>" p
            (String.concat "" (List.init (3 + p) kid))
        in
        let doc =
          Store.load_string store ("<r>" ^ String.concat "" (List.init width parent) ^ "</r>")
        in
        let n = Store.node_count store in
        let elements =
          Array.of_list
            (List.filter (fun i -> Store.kind store i = Store.Element) (List.init n Fun.id))
        in
        let ids = List.map (fun t -> t mod n) targets in
        let ids =
          match order with
          | 0 -> List.sort compare ids
          | 1 -> List.sort (fun a b -> compare b a) ids
          | _ ->
            let a = Array.of_list ids in
            fisher_yates (Random.State.make [| seed + 1 |]) a;
            Array.to_list a
        in
        let dels = List.map (fun id -> rq (Update.Delete id)) ids in
        (* interleave inserts of fresh elements and renames *)
        let delta =
          List.fold_left
            (fun d (ins, pick, at) ->
              let e = elements.(pick mod Array.length elements) in
              let r =
                if ins then
                  rq
                    (Update.Insert
                       { nodes = [ Store.make_element store (qn "f") ]; parent = e;
                         position = (if at mod 2 = 0 then Update.Last else Update.First) })
                else rq (Update.Rename (e, qn "m"))
              in
              let k = at mod (List.length d + 1) in
              List.filteri (fun i _ -> i < k) d @ (r :: List.filteri (fun i _ -> i >= k) d))
            dels others
        in
        (store, doc, delta)
      in
      let outcome f = match f () with () -> "ok" | exception e -> Printexc.to_string e in
      let batched, doc, delta = build () in
      let got = outcome (fun () ->
          Apply.apply ~rand_state:(Random.State.make [| seed |]) batched mode delta)
      in
      let one, _, _ = build () in
      let expected =
        outcome (fun () ->
            Store.transactionally one (fun () ->
                let arr = Array.of_list delta in
                if mode <> Apply.Ordered then begin
                  if mode = Apply.Conflict_detection then Conflict.check ~store:one delta;
                  fisher_yates (Random.State.make [| seed |]) arr
                end;
                Array.iter (Update.apply_request one) arr))
      in
      let digest = Xqb_store.Journal.digest in
      let undo, _, _ = build () in
      let before = digest undo in
      ignore
        (outcome (fun () ->
             Store.transactionally undo (fun () ->
                 Apply.apply ~rand_state:(Random.State.make [| seed |]) undo mode delta;
                 failwith "forced")));
      got = expected
      && serialize batched doc = serialize one doc
      && digest batched = digest one
      && Store.validate batched = []
      && Store.mutation_count batched = Store.mutation_count one
      && Store.journal_entries batched = Store.journal_entries one
      && digest undo = before
      && Store.validate undo = [])

let suite =
  [
    ("apply:ordered", ordered_tests);
    ("apply:rule-matrix", matrix_tests);
    ("apply:checker-insensitive", [ checker_permutation_insensitive ]);
    ("apply:nondeterministic", nondet_tests);
    ("apply:conflict-rules", conflict_rules);
    ("apply:conflict-engine", conflict_engine);
    ("apply:permutation-property", [ conflict_free_is_order_independent ]);
    ("apply:batched-deletes", [ batched_equals_one_by_one ]);
  ]
