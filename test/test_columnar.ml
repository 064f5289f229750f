(** Property tests for the columnar executor's building blocks (qcheck):
    dictionary-encoding round-trip, sorted-run merge ≡ [Tuple.Map.union],
    and every batch operator — samplers and foreign joins included —
    differentially against the tuple-at-a-time tree-walker oracle
    ({!Scallop_fuzz.Tree_walker}) on random relations with random
    provenance tags, under boolean, minmaxprob and topkproofs-3.

    Operator comparisons are bit-exact: same tuples, same emission order,
    and tags equal through [P.recover] (for topkproofs that is the full
    weighted model count of the proof formula).  Whole programs are checked
    against the oracle too, and the TC-500 boolean chain against its
    allocation gate. *)

open Scallop_core
module Tree_walker = Scallop_fuzz.Tree_walker

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
  let module T = Tree_walker.Make (P) in
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
     engines must read the *same* tags from one instance, which is exactly
     what the differential harness wants anyway.  The oracle folds them
     into maps, the executor into its input batches. *)
  let db_of facts =
    let db = ref T.SMap.empty and inputs = B.inputs () in
    List.iter
      (fun (pred, l) ->
        List.iter
          (fun ((a, b), p) ->
            let tag, _ = P.tag_of_input (Provenance.Input.prob p) in
            let rel =
              Tuple.Map.update (tup2 a b)
                (fun cur -> Some (match cur with None -> tag | Some t -> P.add t tag))
                (T.relation_of !db pred)
            in
            db := T.SMap.add pred rel !db;
            B.input_add inputs pred (tup2 a b) tag)
          l)
      facts;
    (!db, B.input_batches inputs)
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
    let agg agg key_len group body =
      Aggregate { agg; key_len; arg_len = 0; result_ty = None; group; body }
    in
    let sample sampler key_len group body = Sample { sampler; key_len; group; body } in
    let dom = Domain (Project ([ Access 0 ], b)) in
    let int n = F_const (Value.int Value.I32 n) in
    let foreign name args left = Foreign_join { name; args; left } in
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
                                     Join { lkeys = [ 1 ]; rkeys = [ 0 ]; left = a; right = Union (a, b) }));
      ("top no-group", sample (Top_k 3) 0 No_group (Union (a, b)));
      ("top implicit", sample (Top_k 2) 1 Implicit a);
      ("top domain", sample (Top_k 1) 1 dom a);
      ("uniform no-group", sample (Uniform 3) 0 No_group (Union (a, b)));
      ("uniform implicit", sample (Uniform 2) 1 Implicit a);
      ("uniform domain", sample (Uniform 2) 1 dom (Union (a, b)));
      ("categorical no-group", sample (Categorical 3) 0 No_group a);
      ("categorical implicit", sample (Categorical 2) 1 Implicit (Union (a, b)));
      ("categorical domain", sample (Categorical 1) 1 dom a);
      ("range bound bounds, free x", foreign "range" [ int 1; int 3; F_free ] a);
      ("range column bounds, free x", foreign "range" [ F_col 0; F_col 1; F_free ] a);
      ("range all bound", foreign "range" [ int 0; int 3; F_col 1 ] a);
      ("succ bound, free", foreign "succ" [ F_col 0; F_free ] a);
      ("succ free, bound", foreign "succ" [ F_free; F_col 1 ] a);
      ("succ both bound", foreign "succ" [ F_col 0; F_col 1 ] (Union (a, b)));
      ("range returning Error", foreign "range" [ F_free; int 3; F_col 0 ] a);
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
        let db, inputs = db_of [ ("a", la); ("b", lb) ] in
        let plan = Plan.of_expr e in
        (* each side samples from its own copy of one stream *)
        let rng = Scallop_utils.Rng.create (Hashtbl.hash (la, lb)) in
        let config () =
          { (Interp.default_config ()) with Interp.rng = Scallop_utils.Rng.copy rng }
        in
        let run f = try Ok (f ()) with Exec_error.Error err -> Error err in
        match
          ( run (fun () -> T.eval (config ()) db plan),
            run (fun () -> I.eval_plan_columnar (config ()) inputs plan) )
        with
        | Ok reference, Ok columnar -> items_equal reference columnar
        | Error _, Error _ -> true (* both reject (e.g. unsupported negation) *)
        | _ -> false)
  in
  (merge_test :: List.map op_test exprs)

(* ---- whole programs under a non-associative ⊕ ------------------------------- *)

(* One node domain of the recursive-closure cases: [node k] is the value of
   node [k]; with [labels > 0] every edge carries one of that many labels
   (the values of nodes [0 .. labels-1]) and paths keep it, so the recursive
   relation has width 3; [extra] adds rules to the closure program. *)
type tc_domain = { seed : int; node : int -> Value.t; labels : int; extra : string }

let i32 n = Value.int Value.I32 n
let i64 n = Value.int Value.I64 n

let ints_domain = { seed = 16; node = i32; labels = 0; extra = "" }

let strings_domain =
  { seed = 17; node = (fun k -> Value.string (Fmt.str "n%d" k)); labels = 0; extra = "" }

(* Ids on both sides of zero, down to -2^30, the lower bound of a width-2
   row that packs into one int: a packing that dropped the high bit of each
   value would merge node [j] with node [j - 2^30]. *)
let negative_domain =
  {
    seed = 31;
    node = (fun k -> i32 (if k land 1 = 0 then k / 2 else (k / 2) - (1 lsl 30)));
    labels = 0;
    extra = "";
  }

let large_domain = { seed = 32; node = (fun k -> i64 ((1 lsl 40) + k)); labels = 0; extra = "" }

(* Every edge packs, and an extra rule walks path ends up past 2^30, so the
   closure first re-derives tuples that pack and later derives ones that do
   not. *)
let straddle_domain =
  {
    seed = 33;
    node = (fun k -> i64 ((1 lsl 30) - 48 + k));
    labels = 0;
    extra = Fmt.str "rel path(a, b + 1) = path(a, b), b < %d\n" ((1 lsl 30) + 8);
  }

(* max_int - min_int overflows an int: no offset key spans these columns. *)
let extreme_domain =
  {
    seed = 34;
    node = (fun k -> i64 (if k land 1 = 0 then max_int - (k / 2) else min_int + (k / 2)));
    labels = 0;
    extra = "";
  }

let u64_domain =
  { seed = 35; node = (fun k -> Value.int Value.U64 ((1 lsl 29) + (5 * k))); labels = 0; extra = "" }

let width3_domain = { seed = 36; node = (fun k -> i32 ((k - 14) * 37_000)); labels = 3; extra = "" }

(* addmultprob's ⊕ is a clamped float sum, so a tag folded in a different
   association differs in its last bits.  Transitive closure over random
   cyclic graphs on the domain [d] derives the same path in many fixpoint
   rounds; int node columns take the radix merge of a relation's runs,
   string columns the pairwise one.  Both must equal the tree-walker bit
   for bit, under [spec] (addmultprob by default). *)
let addmult_tc ?(spec = Registry.Add_mult_prob) (d : tc_domain) () =
  let rng = Scallop_utils.Rng.create d.seed in
  let ty = Value.ty_name (Value.type_of (d.node 0)) in
  let src =
    if d.labels = 0 then
      Fmt.str
        "type edge(%s, %s)\nrel path(a, b) = edge(a, b)\nrel path(a, c) = path(a, b), edge(b, c)\n%squery path\n"
        ty ty d.extra
    else
      Fmt.str
        "type edge(%s, %s, %s)\nrel path(a, b, l) = edge(a, b, l)\nrel path(a, c, l) = path(a, b, l), edge(b, c, l)\n%squery path\n"
        ty ty ty d.extra
  in
  let c = Session.compile src in
  let failures = ref [] in
  for seed = 1 to 60 do
    let n = 5 + Scallop_utils.Rng.int rng 25 and m = 10 + Scallop_utils.Rng.int rng 80 in
    let edges =
      List.init m (fun _ ->
          (* probabilities keep the three decimals of a fact literal *)
          let p = Float.of_string (Fmt.str "%.3f" (0.05 +. (0.9 *. Scallop_utils.Rng.float rng))) in
          let a = d.node (Scallop_utils.Rng.int rng n) in
          let b = d.node (Scallop_utils.Rng.int rng n) in
          let label = if d.labels = 0 then [] else [ d.node (Scallop_utils.Rng.int rng d.labels) ] in
          (Provenance.Input.prob p, Tuple.of_list (a :: b :: label)))
    in
    let facts = [ ("edge", edges) ] in
    let rows (r : Session.result) =
      r.Session.outputs
      |> List.concat_map (fun (_, l) -> List.map (fun (t, o) -> (t, Provenance.Output.prob o)) l)
    in
    let provenance () = Registry.create spec in
    let a = rows (Session.run ~provenance:(provenance ()) c ~facts ())
    and b = rows (Tree_walker.run ~provenance:(provenance ()) c ~facts ()) in
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

(* Boundary domains of the packed-int kernels, under a non-associative and
   an idempotent ⊕. *)
let boundary_tc_cases =
  List.concat_map
    (fun (name, d) ->
      List.map
        (fun (pname, spec) ->
          Alcotest.test_case
            (Fmt.str "%s TC, %s: columnar = tree-walker bit-exactly" pname name)
            `Quick (addmult_tc ~spec d))
        [ ("addmultprob", Registry.Add_mult_prob); ("minmaxprob", Registry.Max_min_prob) ])
    [
      ("negative ids", negative_domain);
      ("ids >= 2^30", large_domain);
      ("ids straddling 2^30", straddle_domain);
      ("ids near max_int and min_int", extreme_domain);
      ("u64 ids", u64_domain);
      ("width-3 paths", width3_domain);
    ]

(* ---- serve and the oracle ------------------------------------------------------- *)

(* One-shot programs piped through [scallop serve] must reply exactly the
   rows of an in-process oracle run under the config the service gives
   request [n]: the bench's three one-shot families, a sampler (its draws
   depend on that config's RNG substream) and foreign predicates plus a
   foreign function. *)
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
           let config = Session.batch_config (Interp.default_config ()) n in
           let r =
             Tree_walker.run ~config ~provenance:(Registry.create Registry.Max_min_prob) c ()
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

(* ---- allocation gate -------------------------------------------------------------- *)

(* [bench interp]'s TC-500 boolean chain may allocate at most 1.25x the 11.6
   minor words per output tuple it did when its gate was set.  Allocation
   repeats exactly from run to run, so this holds between bench runs too. *)
let tc500_minor_words () =
  let c =
    Session.compile
      {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let facts =
    [
      ( "edge",
        List.init 500 (fun i ->
            ( Provenance.Input.prob 0.9,
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  let w0 = Gc.minor_words () in
  let r = Session.run ~provenance:(Registry.create Registry.Boolean) c ~facts () in
  let words = Gc.minor_words () -. w0 in
  let tuples = List.length (Session.output r "path") in
  Alcotest.(check int) "chain closure size" (500 * 501 / 2) tuples;
  let per_tuple = words /. float_of_int tuples in
  if not (per_tuple <= 1.25 *. 11.6) then
    Alcotest.failf "TC-500 boolean: %.2f minor words per tuple > %.1f" per_tuple (1.25 *. 11.6)

(* ---- exact delta table -------------------------------------------------------------- *)

(* A relation on its exact table goes back to a hash set when a run that
   does not pack is pushed: a row of that run that does pack must still be
   found with the tag the run gave it. *)
let exact_table_push_revert () =
  let module P = (val Registry.create Registry.Add_mult_prob) in
  let module B = Batch_ops.Make (P) in
  let tag p = fst (P.tag_of_input (Provenance.Input.prob p)) in
  let run rows = B.of_list (List.map (fun (a, b, p) -> (Tuple.of_list [ i64 a; i64 b ], tag p)) rows) in
  let c = B.crel_of_run (run [ (1, 2, 0.5); (2, 3, 0.5) ]) in
  (* a re-derived tuple: the relation switches to its exact table *)
  let acc, _ = B.delta_of_run ~old:c (run [ (1, 2, 0.25); (5, 6, 0.5) ]) in
  B.crel_push c acc;
  (* pushed without a probe; 2^40 does not pack *)
  B.crel_push c (run [ (1, 2, 0.875); (1 lsl 40, 1, 0.5) ]);
  let acc, _ = B.delta_of_run ~old:c (run [ (1, 2, 0.0625) ]) in
  B.release ();
  let probs b = List.map (fun (_, t) -> Provenance.Output.prob (P.recover t)) (B.to_list b) in
  Alcotest.(check (list (float 0.0))) "merged with the pushed tag" [ 0.9375 ] (probs acc)

(* ---- pooled scratch ------------------------------------------------------------------ *)

(* A run its budget stops still hands its scratch back to the domain's pool,
   so the next run on the domain does not grow its buffers from nothing. *)
let pool_refilled_after_budget_error () =
  let c =
    Session.compile
      "type edge(i32, i32)\nrel path(a, b) = edge(a, b)\nrel path(a, c) = path(a, b), edge(b, c)\nquery path"
  in
  let facts =
    [ ("edge", List.init 6 (fun i -> (Provenance.Input.none, Tuple.of_list [ i32 i; i32 (i + 1) ]))) ]
  in
  let config = { (Interp.default_config ()) with Interp.budget = Budget.make ~max_iterations:2 () } in
  (match Session.run ~config ~provenance:(Registry.create Registry.Boolean) c ~facts () with
  | _ -> Alcotest.fail "a 6-edge chain closed within 2 iterations"
  | exception Session.Error (Exec_error.Budget_exceeded _) -> ());
  Alcotest.(check bool)
    "the domain's scratch is pooled" true
    (Option.is_some (Atomic.get (Domain.DLS.get Batch_ops.pool)))

let suite =
  [
    Alcotest.test_case "serve one-shot replies = tree-walker rows" `Quick
      serve_matches_tree_walker;
    Alcotest.test_case "addmultprob TC, int columns: columnar = tree-walker bit-exactly" `Quick
      (addmult_tc ints_domain);
    Alcotest.test_case "addmultprob TC, string columns: columnar = tree-walker bit-exactly"
      `Quick (addmult_tc strings_domain);
    Alcotest.test_case "TC-500 boolean chain: <= 14.5 minor words per tuple" `Quick
      tc500_minor_words;
    col_roundtrip;
    col_cmp_consistent;
  ]
  @ tests_for "boolean" Registry.Boolean ~rich_aggs:true
  @ tests_for "minmaxprob" Registry.Max_min_prob ~rich_aggs:true
  @ tests_for "topkproofs-3" (Registry.Top_k_proofs 3) ~rich_aggs:false
  @ boundary_tc_cases
  @ [
      Alcotest.test_case "budget-stopped run returns its scratch to the pool" `Quick
        pool_refilled_after_budget_error;
      Alcotest.test_case "pushing a run that does not pack leaves the exact table" `Quick
        exact_table_push_revert;
    ]
