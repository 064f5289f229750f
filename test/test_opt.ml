(** Tests for the back-IR optimizer: local rewrites checked structurally,
    plus a battery of whole programs executed optimized vs. unoptimized
    under exact provenances (results must be identical). *)

open Scallop_core

let check = Alcotest.check

(* ---- structural rewrites -------------------------------------------------------- *)

let i32 n = Value.int Value.I32 n

let test_constant_folding () =
  let e =
    Ram.Binop (Foreign.Add, Ram.Const (i32 2), Ram.Binop (Foreign.Mul, Ram.Const (i32 3), Ram.Const (i32 4)))
  in
  match Opt.fold_vexpr e with
  | Ram.Const v -> check Alcotest.(option int) "2+3*4" (Some 14) (Value.to_int v)
  | _ -> Alcotest.fail "should fold to a constant"

let test_failing_constant_not_folded () =
  (* 1/0 must keep its per-tuple drop semantics, not crash the optimizer *)
  let e = Ram.Binop (Foreign.Div, Ram.Const (i32 1), Ram.Const (i32 0)) in
  match Opt.fold_vexpr e with
  | Ram.Binop (Foreign.Div, _, _) -> ()
  | _ -> Alcotest.fail "failing constant should stay"

let test_select_true_false () =
  let base = Ram.Pred "p" in
  (match Opt.optimize_expr (Ram.Select (Ram.Const (Value.bool true), base)) with
  | Ram.Pred "p" -> ()
  | _ -> Alcotest.fail "σ_true should disappear");
  match Opt.optimize_expr (Ram.Select (Ram.Const (Value.bool false), base)) with
  | Ram.Empty -> ()
  | _ -> Alcotest.fail "σ_false should empty the plan"

let test_projection_fusion () =
  let inner = Ram.Project ([ Ram.Access 1; Ram.Access 0 ], Ram.Pred "p") in
  let outer = Ram.Project ([ Ram.Access 1 ], inner) in
  match Opt.optimize_expr outer with
  | Ram.Project ([ Ram.Access 0 ], Ram.Pred "p") -> ()
  | e -> Alcotest.failf "expected fused projection, got %a" Ram.pp_expr e

let test_projection_fusion_blocked_by_fallible () =
  (* inner mapping contains arithmetic that can fail: fusion must not occur *)
  let inner =
    Ram.Project
      ([ Ram.Access 0; Ram.Binop (Foreign.Div, Ram.Const (i32 6), Ram.Access 1) ], Ram.Pred "p")
  in
  let outer = Ram.Project ([ Ram.Access 0 ], inner) in
  match Opt.optimize_expr outer with
  | Ram.Project (_, Ram.Project (_, _)) -> ()
  | e -> Alcotest.failf "fusion over fallible mapping must be blocked, got %a" Ram.pp_expr e

let test_empty_propagation () =
  (match Opt.optimize_expr (Ram.Union (Ram.Empty, Ram.Pred "p")) with
  | Ram.Pred "p" -> ()
  | _ -> Alcotest.fail "∅ ∪ p = p");
  (match Opt.optimize_expr (Ram.Product (Ram.Pred "p", Ram.Select (Ram.Const (Value.bool false), Ram.Pred "q"))) with
  | Ram.Empty -> ()
  | _ -> Alcotest.fail "p × ∅ = ∅");
  match
    Opt.optimize_expr
      (Ram.Antijoin { lkeys = []; rkeys = []; left = Ram.Pred "p"; right = Ram.Empty })
  with
  | Ram.Pred "p" -> ()
  | _ -> Alcotest.fail "p ▷ ∅ = p"

let test_select_fusion () =
  let e =
    Ram.Select
      ( Ram.Binop (Foreign.Gt, Ram.Access 0, Ram.Const (i32 1)),
        Ram.Select (Ram.Binop (Foreign.Lt, Ram.Access 0, Ram.Const (i32 5)), Ram.Pred "p") )
  in
  match Opt.optimize_expr e with
  | Ram.Select (Ram.Binop (Foreign.Land, _, _), Ram.Pred "p") -> ()
  | e -> Alcotest.failf "expected fused selection, got %a" Ram.pp_expr e

(* ---- end-to-end equivalence --------------------------------------------------------- *)

let programs =
  [
    {|rel person = {"Alice", "Bob", "Christine"}
rel father = {("Alice", "Bob")}
rel mother = {("Bob", "Christine")}
rel gm(a, c) = father(a, b), mother(b, c)
rel lonely(p) = person(p) and not father(_, p) and not mother(_, p)
rel n(x) = x := count(p: person(p))
query gm
query lonely
query n|};
    {|type edge(i32, i32)
rel edge = {(0, 1), (1, 2), (2, 3), (3, 0)}
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|};
    {|rel v = {1, 2, 3}
rel sq(x * x) = v(x)
rel shifted(x + 1 * 2) = v(x)
rel sel(x) = v(x), x > 1 + 1
query sq
query shifted
query sel|};
    {|rel cell(x, y) = range(0, 3, x), range(0, 3, y), x != y
rel diag(x) = range(0, 3, x)
rel offdiag(n) = n := count(x, y: cell(x, y))
query offdiag|};
  ]

(* [Session.compile] ends with [Opt.optimize_program]; the unoptimized twin
   lowers the same front end without it (none of the programs above uses
   [@demand], the one front-end pass left out). *)
let compile_unoptimized src =
  let c = Session.compile src in
  let typed = Typecheck.check (Front.desugar (Parser.parse_program src)) in
  let ram =
    Compile.compile_strata (Stratify.stratify typed.Typecheck.rules)
      ~outputs:c.Session.ram.Ram.outputs
  in
  { c with Session.ram; plan = Plan.of_program ram }

let run_with ~optimize src =
  let compiled = if optimize then Session.compile src else compile_unoptimized src in
  let result = Session.run ~provenance:(Registry.create Registry.Max_min_prob) compiled () in
  List.map
    (fun (pred, rows) ->
      ( pred,
        List.map (fun (t, o) -> Fmt.str "%a=%.6f" Tuple.pp t (Provenance.Output.prob o)) rows
        |> List.sort compare ))
    result.Session.outputs

let test_equivalence () =
  let pp_ram (c : Session.compiled) = Fmt.str "%a" Ram.pp_program c.Session.ram in
  if
    List.for_all
      (fun src -> pp_ram (Session.compile src) = pp_ram (compile_unoptimized src))
      programs
  then Alcotest.fail "the optimizer rewrote none of the programs";
  List.iteri
    (fun i src ->
      let opt = run_with ~optimize:true src in
      let raw = run_with ~optimize:false src in
      check
        Alcotest.(list (pair string (list string)))
        (Fmt.str "program %d" i) raw opt)
    programs

(* The optimizer must be idempotent on real compiled plans: a second pass
   finds nothing left to rewrite. *)
let test_idempotent_on_compiled_plans () =
  List.iter
    (fun src ->
      let c = Session.compile src in
      List.iter
        (fun (s : Ram.stratum) ->
          List.iter
            (fun (r : Ram.rule) ->
              let once = Opt.optimize_expr r.Ram.body in
              let twice = Opt.optimize_expr once in
              if Fmt.str "%a" Ram.pp_expr once <> Fmt.str "%a" Ram.pp_expr twice then
                Alcotest.failf "optimizer not idempotent on %a" Ram.pp_rule r)
            s.Ram.rules)
        c.Session.ram.Ram.strata)
    (programs
    @ [ Scallop_apps.Programs.pacman; Scallop_apps.Programs.hwf; Scallop_apps.Programs.clevr ])

let suite =
  [
    Alcotest.test_case "optimizer idempotent on compiled plans" `Quick
      test_idempotent_on_compiled_plans;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "failing constant kept" `Quick test_failing_constant_not_folded;
    Alcotest.test_case "σ true/false" `Quick test_select_true_false;
    Alcotest.test_case "projection fusion" `Quick test_projection_fusion;
    Alcotest.test_case "fusion blocked by fallible mapping" `Quick
      test_projection_fusion_blocked_by_fallible;
    Alcotest.test_case "empty propagation" `Quick test_empty_propagation;
    Alcotest.test_case "selection fusion" `Quick test_select_fusion;
    Alcotest.test_case "optimized ≡ unoptimized" `Quick test_equivalence;
  ]
