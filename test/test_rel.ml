(* Unit tests for the relational base library. *)

module V = Rel.Value

let int_ n = V.Int n
let str s = V.String s

(* --- Value --- *)

let test_value_types () =
  Alcotest.(check (option string))
    "type of Int" (Some "int")
    (Option.map V.ty_name (V.type_of (int_ 3)));
  Alcotest.(check (option string))
    "type of Null" None
    (Option.map V.ty_name (V.type_of V.Null));
  Alcotest.(check bool) "null has every type" true (V.has_type V.Ty_string V.Null);
  Alcotest.(check bool) "int is not string" false (V.has_type V.Ty_string (int_ 1))

let test_value_compare () =
  Alcotest.(check bool) "3 < 5" true (V.compare (int_ 3) (int_ 5) < 0);
  Alcotest.(check bool) "null sorts first" true (V.compare V.Null (int_ 0) < 0);
  Alcotest.(check bool) "strings ordered" true (V.compare (str "a") (str "b") < 0);
  Alcotest.(check int) "equal values" 0 (V.compare (V.Float 2.5) (V.Float 2.5));
  Alcotest.(check bool)
    "cross-type order is fixed" true
    (V.compare (V.Bool true) (int_ 0) < 0)

let test_value_equal_hash () =
  Alcotest.(check bool) "equal ints" true (V.equal (int_ 7) (int_ 7));
  Alcotest.(check bool) "null = null structurally" true (V.equal V.Null V.Null);
  Alcotest.(check bool) "sql null never equal" false (V.sql_equal V.Null V.Null);
  Alcotest.(check bool) "sql equal on ints" true (V.sql_equal (int_ 7) (int_ 7));
  Alcotest.(check int) "hash agrees with equal" (V.hash (int_ 42)) (V.hash (int_ 42))

let test_value_extractors () =
  Alcotest.(check int) "int_exn" 9 (V.int_exn (int_ 9));
  Alcotest.(check (float 0.)) "float_exn coerces int" 4. (V.float_exn (int_ 4));
  Alcotest.check_raises "int_exn on string"
    (Invalid_argument "Value.int_exn: not an integer") (fun () ->
      ignore (V.int_exn (str "x")));
  Alcotest.(check string) "to_string" "NULL" (V.to_string V.Null)

(* --- Cmp --- *)

let test_cmp_eval () =
  Alcotest.(check bool) "3 < 5" true (Rel.Cmp.eval Rel.Cmp.Lt (int_ 3) (int_ 5));
  Alcotest.(check bool) "5 >= 5" true (Rel.Cmp.eval Rel.Cmp.Ge (int_ 5) (int_ 5));
  Alcotest.(check bool) "3 <> 5" true (Rel.Cmp.eval Rel.Cmp.Ne (int_ 3) (int_ 5));
  Alcotest.(check bool)
    "null comparisons are false" false
    (Rel.Cmp.eval Rel.Cmp.Eq V.Null V.Null)

let test_cmp_flip_negate () =
  let all = Rel.Cmp.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  List.iter
    (fun op ->
      List.iter
        (fun (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "flip %s" (Rel.Cmp.to_string op))
            (Rel.Cmp.eval op a b)
            (Rel.Cmp.eval (Rel.Cmp.flip op) b a);
          Alcotest.(check bool)
            (Printf.sprintf "negate %s" (Rel.Cmp.to_string op))
            (not (Rel.Cmp.eval op a b))
            (Rel.Cmp.eval (Rel.Cmp.negate op) a b))
        [ (int_ 1, int_ 2); (int_ 2, int_ 2); (int_ 3, int_ 2) ])
    all

(* --- Vec --- *)

let test_vec_basics () =
  let v = Rel.Vec.create () in
  Alcotest.(check bool) "empty" true (Rel.Vec.is_empty v);
  for i = 0 to 99 do
    Rel.Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Rel.Vec.length v);
  Alcotest.(check int) "get" 42 (Rel.Vec.get v 42);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Rel.Vec.get v 100))

let test_vec_iteration () =
  let v = Rel.Vec.of_list [ 3; 1; 2 ] in
  Alcotest.(check int) "fold sum" 6 (Rel.Vec.fold_left ( + ) 0 v);
  Alcotest.(check (list int)) "map" [ 6; 2; 4 ]
    (Rel.Vec.to_list (Rel.Vec.map (fun x -> x * 2) v));
  Alcotest.(check bool) "exists" true (Rel.Vec.exists (fun x -> x = 2) v);
  let w = Rel.Vec.of_list [ 9 ] in
  Rel.Vec.append w v;
  Alcotest.(check (list int)) "append" [ 9; 3; 1; 2 ] (Rel.Vec.to_list w)

(* Random interleavings of pushes and copies: [Copy i] copies the i-th
   vector made so far, copies of copies included, and [Push (i, x)] pushes
   [x] onto it (indices wrap). Every vector must equal its own list model
   after every step, whoever shares its array. *)
type vec_op = Copy of int | Push of int * int

let arb_vec_ops =
  let print = function
    | Copy i -> Printf.sprintf "copy %d" i
    | Push (i, x) -> Printf.sprintf "push %d %d" i x
  in
  QCheck.make
    ~print:QCheck.Print.(list print)
    QCheck.Gen.(
      list_size (int_range 0 150)
        (frequency
           [
             (1, map (fun i -> Copy i) small_nat);
             (5, map2 (fun i x -> Push (i, x)) small_nat small_int);
           ]))

let prop_vec_copies_independent =
  QCheck.Test.make ~count:300
    ~name:"vec: copies and copies of copies see none of each other's pushes"
    arb_vec_ops (fun ops ->
      (* each vector with its model, newest first; models are reversed *)
      let vecs = ref [ (Rel.Vec.create (), ref []) ] in
      let nth i = List.nth !vecs (i mod List.length !vecs) in
      List.for_all
        (fun op ->
          (match op with
          | Copy i ->
            let v, model = nth i in
            vecs := (Rel.Vec.copy v, ref !model) :: !vecs
          | Push (i, x) ->
            let v, model = nth i in
            Rel.Vec.push v x;
            model := x :: !model);
          List.for_all
            (fun (v, model) ->
              let expected = List.rev !model in
              Rel.Vec.length v = List.length expected
              && Rel.Vec.to_list v = expected
              && List.for_all2 ( = ) expected
                   (List.init (Rel.Vec.length v) (Rel.Vec.get v)))
            !vecs)
        ops)

(* --- Schema --- *)

let schema_abc () =
  Rel.Schema.make
    [
      Rel.Schema.column ~table:"t" ~name:"a" V.Ty_int;
      Rel.Schema.column ~table:"t" ~name:"b" V.Ty_string;
      Rel.Schema.column ~table:"u" ~name:"a" V.Ty_int;
    ]

let test_schema_lookup () =
  let s = schema_abc () in
  Alcotest.(check int) "arity" 3 (Rel.Schema.arity s);
  Alcotest.(check (option int)) "qualified" (Some 2)
    (Rel.Schema.index_of s ~table:"u" ~name:"a");
  Alcotest.(check (option int)) "case-insensitive" (Some 0)
    (Rel.Schema.index_of s ~table:"T" ~name:"A");
  Alcotest.(check bool) "unqualified unique" true
    (Rel.Schema.index_of_name s "b" = Ok 1);
  Alcotest.(check bool) "unqualified ambiguous" true
    (Rel.Schema.index_of_name s "a" = Error `Ambiguous);
  Alcotest.(check bool) "missing" true
    (Rel.Schema.index_of_name s "zz" = Error `Missing)

let test_schema_dup () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.make: duplicate column t.a") (fun () ->
      ignore
        (Rel.Schema.make
           [
             Rel.Schema.column ~table:"t" ~name:"a" V.Ty_int;
             Rel.Schema.column ~table:"t" ~name:"a" V.Ty_int;
           ]))

let test_schema_ops () =
  let s = schema_abc () in
  let projected = Rel.Schema.project s [ 2; 0 ] in
  Alcotest.(check int) "project arity" 2 (Rel.Schema.arity projected);
  Alcotest.(check string) "project order" "u"
    (Rel.Schema.get projected 0).Rel.Schema.table;
  let renamed = Rel.Schema.rename_table s "x" in
  Alcotest.(check (option int)) "renamed" (Some 0)
    (Rel.Schema.index_of renamed ~table:"x" ~name:"a");
  let other =
    Rel.Schema.make [ Rel.Schema.column ~table:"v" ~name:"c" V.Ty_bool ]
  in
  Alcotest.(check int) "concat arity" 4 (Rel.Schema.arity (Rel.Schema.concat s other));
  Alcotest.(check bool) "equal to itself" true (Rel.Schema.equal s (schema_abc ()))

(* --- Tuple --- *)

let test_tuple_ops () =
  let t = Rel.Tuple.of_list [ int_ 1; str "x"; int_ 9 ] in
  Alcotest.(check int) "arity" 3 (Rel.Tuple.arity t);
  Alcotest.(check bool) "project" true
    (Rel.Tuple.equal (Rel.Tuple.project t [ 2; 0 ])
       (Rel.Tuple.of_list [ int_ 9; int_ 1 ]));
  let u = Rel.Tuple.of_list [ int_ 1; str "y"; int_ 9 ] in
  Alcotest.(check int) "compare_at equal positions" 0
    (Rel.Tuple.compare_at [ 0; 2 ] t u);
  Alcotest.(check bool) "compare_at differing" true
    (Rel.Tuple.compare_at [ 1 ] t u < 0);
  Alcotest.(check int) "hash_at consistent"
    (Rel.Tuple.hash_at [ 0; 2 ] t)
    (Rel.Tuple.hash_at [ 0; 2 ] u);
  Alcotest.(check int) "concat" 6
    (Rel.Tuple.arity (Rel.Tuple.concat t u))

(* --- Relation --- *)

let test_relation_basics () =
  let s =
    Rel.Schema.make
      [
        Rel.Schema.column ~table:"t" ~name:"a" V.Ty_int;
        Rel.Schema.column ~table:"t" ~name:"b" V.Ty_int;
      ]
  in
  let r = Rel.Relation.create s in
  List.iter
    (fun (a, b) -> Rel.Relation.insert_values r [ int_ a; int_ b ])
    [ (1, 10); (2, 20); (2, 30); (3, 10) ];
  Alcotest.(check int) "cardinality" 4 (Rel.Relation.cardinality r);
  Alcotest.(check int) "distinct a" 3 (Rel.Relation.distinct_count r 0);
  Alcotest.(check int) "distinct b" 3 (Rel.Relation.distinct_count r 1);
  Alcotest.(check (option (pair int int)))
    "min max a" (Some (1, 3))
    (Option.map
       (fun (lo, hi) -> (V.int_exn lo, V.int_exn hi))
       (Rel.Relation.min_max r 0));
  Alcotest.(check int) "column_values" 4
    (Array.length (Rel.Relation.column_values r 0))

let test_relation_conformance () =
  let s = Rel.Schema.make [ Rel.Schema.column ~table:"t" ~name:"a" V.Ty_int ] in
  let r = Rel.Relation.create s in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Relation.insert: tuple does not conform to schema")
    (fun () -> Rel.Relation.insert_values r [ int_ 1; int_ 2 ]);
  Alcotest.check_raises "wrong type"
    (Invalid_argument "Relation.insert: tuple does not conform to schema")
    (fun () -> Rel.Relation.insert_values r [ str "no" ]);
  (* NULL conforms to any type. *)
  Rel.Relation.insert_values r [ V.Null ];
  Alcotest.(check int) "null inserted" 1 (Rel.Relation.cardinality r);
  Alcotest.(check int) "null not counted distinct" 0
    (Rel.Relation.distinct_count r 0);
  Alcotest.(check (option bool)) "min_max skips null" None
    (Option.map (fun _ -> true) (Rel.Relation.min_max r 0))

let test_relation_rename () =
  let s = Rel.Schema.make [ Rel.Schema.column ~table:"t" ~name:"a" V.Ty_int ] in
  let r = Rel.Relation.of_tuples s [ Rel.Tuple.of_list [ int_ 5 ] ] in
  let r2 = Rel.Relation.rename r "z" in
  Alcotest.(check string) "renamed table" "z"
    (Rel.Schema.get (Rel.Relation.schema r2) 0).Rel.Schema.table;
  Alcotest.(check int) "data shared" 1 (Rel.Relation.cardinality r2)

let suite =
  [
    Alcotest.test_case "value: types" `Quick test_value_types;
    Alcotest.test_case "value: compare" `Quick test_value_compare;
    Alcotest.test_case "value: equal and hash" `Quick test_value_equal_hash;
    Alcotest.test_case "value: extractors" `Quick test_value_extractors;
    Alcotest.test_case "cmp: eval" `Quick test_cmp_eval;
    Alcotest.test_case "cmp: flip and negate laws" `Quick test_cmp_flip_negate;
    Alcotest.test_case "vec: basics" `Quick test_vec_basics;
    Alcotest.test_case "vec: iteration" `Quick test_vec_iteration;
    Alcotest.test_case "vec: copies are independent" `Quick (fun () ->
        QCheck.Test.check_exn prop_vec_copies_independent);
    Alcotest.test_case "schema: lookup" `Quick test_schema_lookup;
    Alcotest.test_case "schema: duplicate detection" `Quick test_schema_dup;
    Alcotest.test_case "schema: project/rename/concat" `Quick test_schema_ops;
    Alcotest.test_case "tuple: ops" `Quick test_tuple_ops;
    Alcotest.test_case "relation: basics" `Quick test_relation_basics;
    Alcotest.test_case "relation: conformance and nulls" `Quick
      test_relation_conformance;
    Alcotest.test_case "relation: rename" `Quick test_relation_rename;
  ]
