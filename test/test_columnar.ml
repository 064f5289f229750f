(** Property tests for the columnar executor's building blocks (qcheck):
    dictionary-encoding round-trip, sorted-run merge ≡ [Tuple.Map.union],
    and every batch operator differentially against its tuple-at-a-time
    tree-walker reference on random relations with random provenance tags,
    under boolean, minmaxprob and topkproofs-3.

    Operator comparisons are bit-exact: same tuples, same emission order,
    and tags equal through [P.recover] (for topkproofs that is the full
    weighted model count of the proof formula). *)

open Scallop_core

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---- column encodings -------------------------------------------------------- *)

(* Mixed-type pools force dictionary encoding; uniform pools exercise the
   flat int/float fast paths.  Probabilities land on representable floats
   and on signed zeros to probe comparison edge cases. *)
let value_gen : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.int Value.I32 n) (int_range (-5) 5);
        map (fun n -> Value.int Value.U8 n) (int_range 0 7);
        map (fun f -> Value.float Value.F64 f) (oneofl [ 0.0; -0.0; 0.25; 1.5; nan ]);
        map Value.bool bool;
        map Value.string (oneofl [ "a"; "b"; "cd"; "" ]);
      ])

let column_gen = QCheck.make QCheck.Gen.(list_size (int_bound 30) value_gen)

let col_roundtrip =
  qtest "pack/to_array round-trips any value column" column_gen (fun vs ->
      let arr = Array.of_list vs in
      let back = Column.to_array (Column.pack arr) in
      Array.length back = Array.length arr
      && Array.for_all2 (fun a b -> Value.compare a b = 0) arr back)

let col_cmp_consistent =
  qtest "cmp_across ≡ Value.compare under every encoding pair"
    (QCheck.pair column_gen column_gen)
    (fun (xs, ys) ->
      let xa = Array.of_list xs and ya = Array.of_list ys in
      let ca = Column.pack xa and cb = Column.pack ya in
      let ok = ref true in
      Array.iteri
        (fun i x ->
          Array.iteri
            (fun j y ->
              if Column.cmp_across ca cb i j <> Value.compare x y then ok := false)
            ya)
        xa;
      !ok)

(* ---- per-provenance differential harness ------------------------------------- *)

(* One random weighted EDB relation: arity-2 tuples over a small domain so
   joins, diffs and duplicate derivations actually collide. *)
let rel_gen =
  QCheck.make
    QCheck.Gen.(
      list_size (int_bound 12)
        (pair (pair (int_bound 4) (int_bound 4)) (float_range 0.05 0.95)))

let tup2 a b = Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ]

let tests_for (prov_name : string) (spec : Registry.spec) ~(rich_aggs : bool) :
    unit Alcotest.test_case list =
  let module P = (val Registry.create spec) in
  let module I = Interp.Make (P) in
  let module B = Batch_ops.Make (P) in
  let tag_prob t = Provenance.Output.prob (P.recover t) in
  let items_equal l r =
    List.length l = List.length r
    && List.for_all2
         (fun (ua, ta) (ub, tb) ->
           Tuple.compare ua ub = 0 && Float.equal (tag_prob ta) (tag_prob tb))
         l r
  in
  (* A fresh provenance instance per qcheck sample would be ideal, but
     topkproofs assigns fact variables statefully per instance — so both
     engines must read the *same* db built from one instance, which is
     exactly what the differential harness wants anyway. *)
  let db_of facts =
    List.fold_left
      (fun db (pred, l) ->
        List.fold_left
          (fun db ((a, b), p) ->
            let tag, _ = P.tag_of_input (Provenance.Input.prob p) in
            I.db_add_fact db pred (tup2 a b) tag)
          db l)
      I.empty_db facts
  in
  let map_of l =
    List.fold_left
      (fun m ((a, b), p) ->
        let tag, _ = P.tag_of_input (Provenance.Input.prob p) in
        Tuple.Map.update (tup2 a b)
          (fun cur -> Some (match cur with None -> tag | Some t -> P.add t tag))
          m)
      Tuple.Map.empty l
  in
  let merge_test =
    qtest
      (Fmt.str "%s: union_runs ≡ Tuple.Map.union" prov_name)
      (QCheck.pair rel_gen rel_gen)
      (fun (la, lb) ->
        let ma = map_of la and mb = map_of lb in
        let merged =
          B.union_runs (B.of_list (Tuple.Map.bindings ma)) (B.of_list (Tuple.Map.bindings mb))
        in
        (* the newer run's tag wins: a crel pushes accumulated tags *)
        let expect = Tuple.Map.union (fun _ _ n -> Some n) ma mb in
        items_equal (B.to_list merged) (Tuple.Map.bindings expect))
  in
  let exprs =
    let open Ram in
    let a = Pred "a" and b = Pred "b" in
    let agg agg key_len group body = Aggregate { agg; key_len; arg_len = 0; group; body } in
    [
      ("select x!=y", Select (Binop (Foreign.Neq, Access 0, Access 1), a));
      ( "project swap/arith",
        Project ([ Access 1; Binop (Foreign.Add, Access 0, Const (Value.int Value.I32 1)) ], a)
      );
      ("union", Union (a, b));
      ("product", Product (a, b));
      ("diff", Diff (a, b));
      ("intersect", Intersect (a, b));
      ("join", Join { lkeys = [ 1 ]; rkeys = [ 0 ]; left = a; right = b });
      ("antijoin", Antijoin { lkeys = [ 0; 1 ]; rkeys = [ 0; 1 ]; left = a; right = b });
      ("one-overwrite", One_overwrite (Union (a, b)));
      ("zero-overwrite", Zero_overwrite a);
      ("count no-group", agg Count 0 No_group a);
      ("count implicit", agg Count 1 Implicit a);
      ("count domain", agg Count 1 (Domain (Project ([ Access 0 ], b))) a);
      ("exists no-group", agg Exists 0 No_group (Select (Binop (Foreign.Lt, Access 0, Access 1), a)));
      ("nested join-select", Select (Binop (Foreign.Leq, Access 0, Access 3),
                                     Join { lkeys = [ 1 ]; rkeys = [ 0 ]; left = a; right = Union (a, b) }))
    ]
    @
    if rich_aggs then
      [
        ("sum implicit", agg Sum 1 Implicit a);
        ("max implicit", agg Max 1 Implicit a);
        ("min domain", agg Min 1 (Domain (Project ([ Access 0 ], b))) a);
      ]
    else []
  in
  let op_test (ename, e) =
    qtest ~count:60
      (Fmt.str "%s: %s ≡ tree-walker" prov_name ename)
      (QCheck.pair rel_gen rel_gen)
      (fun (la, lb) ->
        let db = db_of [ ("a", la); ("b", lb) ] in
        let plan = Plan.of_expr e in
        let config = Interp.default_config () in
        let run f = try Ok (f ()) with Exec_error.Error err -> Error err in
        match
          ( run (fun () -> I.eval_plan config db plan),
            run (fun () -> I.eval_plan_columnar config db plan) )
        with
        | Ok reference, Ok columnar -> items_equal reference columnar
        | Error _, Error _ -> true (* both reject (e.g. unsupported negation) *)
        | _ -> false)
  in
  (merge_test :: List.map op_test exprs)

(* ---- whole programs under a non-associative ⊕ ------------------------------- *)

(* addmultprob's ⊕ is a clamped float sum, so a tag folded in a different
   association differs in its last bits.  Transitive closure over random
   cyclic graphs derives the same path in many fixpoint rounds; int node
   columns take the radix merge of a relation's runs, string columns the
   pairwise one.  Both must equal the tree-walker bit for bit. *)
let addmult_tc ~strings () =
  let rng = Scallop_utils.Rng.create (if strings then 17 else 16) in
  let failures = ref [] in
  for seed = 1 to 60 do
    let n = 5 + Scallop_utils.Rng.int rng 25 and m = 10 + Scallop_utils.Rng.int rng 80 in
    let node k = if strings then Fmt.str "%S" (Fmt.str "n%d" k) else string_of_int k in
    let edges =
      List.init m (fun _ ->
          Fmt.str "%.3f::(%s, %s)"
            (0.05 +. (0.9 *. Scallop_utils.Rng.float rng))
            (node (Scallop_utils.Rng.int rng n))
            (node (Scallop_utils.Rng.int rng n)))
    in
    let ty = if strings then "String" else "i32" in
    let src =
      Fmt.str
        "type edge(%s, %s)\nrel edge = {%s}\nrel path(a, b) = edge(a, b)\nrel path(a, c) = path(a, b), edge(b, c)\nquery path\n"
        ty ty (String.concat ", " edges)
    in
    let c = Session.compile src in
    let rows columnar =
      (Session.run
         ~config:{ (Interp.default_config ()) with Interp.columnar }
         ~provenance:(Registry.create Registry.Add_mult_prob) c ())
        .Session.outputs
      |> List.concat_map (fun (_, l) -> List.map (fun (t, o) -> (t, Provenance.Output.prob o)) l)
    in
    let a = rows true and b = rows false in
    if
      not
        (List.length a = List.length b
        && List.for_all2
             (fun (ta, pa) (tb, pb) -> Tuple.compare ta tb = 0 && Float.equal pa pb)
             a b)
    then failures := seed :: !failures
  done;
  if !failures <> [] then
    Alcotest.failf "columnar diverged from the tree-walker on graphs %a"
      Fmt.(list ~sep:comma int)
      (List.rev !failures)

(* ---- the default engine --------------------------------------------------------- *)

let default_is_columnar () =
  Alcotest.(check bool) "default config runs columnar" true
    (Interp.default_config ()).Interp.columnar

(* One-shot programs piped through [scallop serve] (which runs them on the
   default engine) must reply exactly the rows of an in-process tree-walker
   run under the config the service gives request [n]: the bench's three
   one-shot families, a sampler (its draws depend on that config's RNG
   substream) and foreign predicates plus a foreign function (plan subtrees
   that fall back to the tree-walker inside a columnar run). *)
let serve_matches_tree_walker () =
  let rng = Scallop_utils.Rng.create 23 in
  let int n = Scallop_utils.Rng.int rng n in
  let prob () = Fmt.str "%.2f" (0.1 +. (0.8 *. Scallop_utils.Rng.float rng)) in
  let edges () =
    String.concat ", " (List.init 40 (fun _ -> Fmt.str "%s::(%d, %d)" (prob ()) (int 20) (int 20)))
  in
  let closure =
    "rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), edge(b, c);rel reach(b) = \
     path(0, b)"
  in
  let graph () = "type edge(i32, i32);rel edge = {" ^ edges () ^ "};" ^ closure in
  let reach () = graph () ^ ";rel cnt(n) = n := count(b: reach(b));query cnt" in
  let unreach () =
    graph () ^ ";type node(i32);rel node = {"
    ^ String.concat ", " (List.init 20 string_of_int)
    ^ "};rel unreach(b) = node(b), not reach(b);rel cnt(n) = n := count(b: unreach(b));query \
       cnt"
  in
  let group () =
    "type item(i32, i32);rel item = {"
    ^ String.concat ", " (List.init 60 (fun _ -> Fmt.str "%s::(%d, %d)" (prob ()) (int 6) (int 100)))
    ^ "};rel total(g, s) = s := sum(x: item(g, x));rel sizes(g, n) = n := count(x: item(g, x));query \
       total;query sizes"
  in
  let sampler () = graph () ^ ";rel picked(b) = b := uniform<3>(x: reach(x));query picked" in
  let foreign () =
    "type e(i32, i32);rel e = {" ^ edges ()
    ^ "};rel cell(x, y, x * 10 + y) = range(0, 6, x), range(0, 6, y), e(x, y);rel \
       name($string_concat(\"c\", $string_concat(\"-\", \"x\"))) = cell(_, _, _);query cell;query \
       name"
  in
  let programs =
    [ reach (); unreach (); group (); sampler (); foreign (); reach (); unreach (); group ();
      sampler (); foreign () ]
  in
  let expected =
    List.concat
      (List.mapi
         (fun n program ->
           let c = Session.compile (String.map (fun ch -> if ch = ';' then '\n' else ch) program) in
           let config =
             { (Session.batch_config (Interp.default_config ()) n) with Interp.columnar = false }
           in
           let r =
             Session.run ~config ~provenance:(Registry.create Registry.Max_min_prob) c ()
           in
           List.concat_map
             (fun (pred, rows) ->
               List.map
                 (fun (t, o) -> Fmt.str "out %d %a::%s%a" n Provenance.Output.pp o pred Tuple.pp t)
                 rows)
             r.Session.outputs)
         programs)
  in
  let dir = Filename.temp_file "scallop_columnar" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  Out_channel.with_open_text (path "in.txt") (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) programs);
  let code =
    Sys.command
      (Fmt.str "../bin/scallop.exe serve -p minmaxprob < %s > %s 2> %s"
         (Filename.quote (path "in.txt"))
         (Filename.quote (path "out.txt"))
         (Filename.quote (path "err.txt")))
  in
  let replies =
    In_channel.with_open_text (path "out.txt") In_channel.input_all |> String.split_on_char '\n'
  in
  Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Alcotest.(check int) "serve exit status" 0 code;
  let dones = List.filter (fun l -> String.starts_with ~prefix:"done " l) replies in
  List.iter
    (fun l ->
      if not (String.length l > 0 && List.mem "ok" (String.split_on_char ' ' l)) then
        Alcotest.failf "request failed: %s" l)
    dones;
  Alcotest.(check int) "one reply per program" (List.length programs) (List.length dones);
  Alcotest.(check (list string))
    "serve rows = tree-walker rows" expected
    (List.filter (fun l -> String.starts_with ~prefix:"out " l) replies)

let suite =
  [
    Alcotest.test_case "default config is columnar" `Quick default_is_columnar;
    Alcotest.test_case "serve one-shot replies = tree-walker rows" `Quick
      serve_matches_tree_walker;
    Alcotest.test_case "addmultprob TC, int columns: columnar = tree-walker bit-exactly" `Quick
      (addmult_tc ~strings:false);
    Alcotest.test_case "addmultprob TC, string columns: columnar = tree-walker bit-exactly"
      `Quick (addmult_tc ~strings:true);
    col_roundtrip;
    col_cmp_consistent;
  ]
  @ tests_for "boolean" Registry.Boolean ~rich_aggs:true
  @ tests_for "minmaxprob" Registry.Max_min_prob ~rich_aggs:true
  @ tests_for "topkproofs-3" (Registry.Top_k_proofs 3) ~rich_aggs:false
