(** Golden pin of the top-k-proofs tag arithmetic.  Digests of a seeded
    stream of ∨k/∧k/¬k calls (proof literals, per-proof probability bits,
    and the bits of [Wmc.prob] and [Wmc.dual]), of sum3 runs through
    [Session.run], and of a short sum3 training run.  The expected values
    were recorded from the map-based proof representation; any rewrite of
    the proof kernels must reproduce them bit for bit.

    The per-sample training digests (MNIST-R sum2 and HWF) were recorded
    while [Scallop_layer.forward] and [forward_open] ran their sample
    through [Session.run] directly; running it as a one-sample batch must
    reproduce them.

    The sampler and foreign-predicate digests pin the rows and recovered-tag
    bits of seeded runs under four provenances, recorded while samplers and
    foreign joins ran on the tree-walker; the executor that runs them must
    reproduce every draw and every emission order. *)

open Scallop_core
module Rng = Scallop_utils.Rng

let check = Alcotest.check

(* NaN payloads and signs carry no meaning; every other float is pinned by
   its exact bits. *)
let add_float buf x =
  if Float.is_nan x then Buffer.add_string buf "nan;"
  else Buffer.add_string buf (Printf.sprintf "%Lx;" (Int64.bits_of_float x))

let add_dual buf d =
  add_float buf (Dual.value d);
  List.iter
    (fun (v, g) ->
      Buffer.add_string buf (Printf.sprintf "d%d=" v);
      add_float buf g)
    (Dual.deriv_list d)

let add_formula buf env (f : Formula.t) =
  List.iter
    (fun p ->
      Buffer.add_char buf '{';
      List.iter
        (fun (v, s) -> Buffer.add_string buf (Printf.sprintf "%s%d " (if s then "" else "~") v))
        (Formula.proof_literals p);
      Buffer.add_char buf '}';
      add_float buf (Formula.proof_prob env p))
    f;
  Buffer.add_string buf "|p=";
  add_float buf (Wmc.prob ~env f);
  Buffer.add_string buf "|d=";
  add_dual buf (Wmc.dual ~env f);
  Buffer.add_char buf '\n'

let hex buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- seeded operator stream ---------------------------------------------------- *)

let envs = Test_topk.envs
let nvars = Test_topk.nvars

let random_formula rng env =
  List.init (Rng.int rng 5) (fun _ ->
      Formula.proof_of_literals
        (List.init (1 + Rng.int rng 4) (fun _ -> (Rng.int rng nvars, Rng.bool rng))))
  |> Formula.top_k env max_int

(* 2,000 calls over the four environments, k from 1 to 5.  Operands are
   fresh canonical formulas or earlier results on the same environment, so
   results feed back into later calls the way fixpoint tags do.  One digest
   per operator. *)
let operator_stream () =
  let rng = Rng.create 20261017 in
  let pools = Array.map (fun _ -> Array.make 16 Formula.ff) envs in
  let bufs = Array.init 3 (fun _ -> Buffer.create 65536) in
  for i = 0 to 1999 do
    let ei = Rng.int rng (Array.length envs) in
    let env = snd envs.(ei) in
    let k = 1 + Rng.int rng 5 in
    let operand () =
      if Rng.int rng 2 = 0 then random_formula rng env else pools.(ei).(Rng.int rng 16)
    in
    let op = Rng.int rng 3 in
    let a = operand () in
    let r =
      match op with
      | 0 -> Formula.disj_k env k a (operand ())
      | 1 -> Formula.conj_k env k a (operand ())
      | _ -> Formula.neg_k env k a
    in
    pools.(ei).(i land 15) <- r;
    Buffer.add_string bufs.(op) (Printf.sprintf "%d %s k=%d " i (fst envs.(ei)) k);
    add_formula bufs.(op) env r
  done;
  Array.map hex bufs

let test_operator_stream () =
  let d = operator_stream () in
  check Alcotest.string "disj_k digest" "2a1fcb475c88c62f804b291b55de9683" d.(0);
  check Alcotest.string "conj_k digest" "e0e1c057400c41861d2b2a30b3a5a8c7" d.(1);
  check Alcotest.string "neg_k digest" "7f261640a74bf12dc1e5039f97d1c4ac" d.(2)

(* ---- sum3 through Session.run -------------------------------------------------- *)

let digit_facts =
  List.map
    (fun (pred, shift) ->
      ( pred,
        List.init 10 (fun d ->
            let w = float_of_int (((d * 7) + shift) mod 10) in
            ( Provenance.Input.prob ~me_group:shift (0.02 +. (0.016 *. w)),
              Tuple.of_list [ Value.int Value.U32 d ] )) ))
    [ ("digit_1", 0); ("digit_2", 3); ("digit_3", 5) ]

let sum3_digest spec =
  let compiled = Session.compile Scallop_apps.Programs.mnist_sum3 in
  let r = Session.run ~provenance:(Registry.create spec) compiled ~facts:digit_facts () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (t, o) ->
      Buffer.add_string buf (Tuple.to_string t);
      (match o with
      | Provenance.Output.O_dual d -> add_dual buf d
      | o -> add_float buf (Provenance.Output.prob o));
      Buffer.add_char buf '\n')
    (Session.output r "sum_3");
  hex buf

let test_sum3_runs () =
  check Alcotest.string "difftopkproofsme-3" "e2a7aad66b2c3fd9575599094e867e01"
    (sum3_digest (Registry.Diff_top_k_proofs_me 3));
  check Alcotest.string "difftopkproofs-3" "91d456eb59aebc1a37d53059d3ddd815" (sum3_digest (Registry.Diff_top_k_proofs 3));
  check Alcotest.string "topkproofs-3" "192dc5a42fb86385297cd67784207364" (sum3_digest (Registry.Top_k_proofs 3))

(* ---- sum3 training ---------------------------------------------------------------- *)

let test_sum3_training () =
  let config =
    {
      Scallop_apps.Common.default_config with
      Scallop_apps.Common.seed = 17;
      epochs = 2;
      n_train = 32;
      n_test = 16;
    }
  in
  let r =
    Scallop_apps.Mnist_r.train_and_eval_batched ~batch_size:16 ~jobs:1 config
      Scallop_data.Mnist.Sum3
  in
  let buf = Buffer.create 256 in
  List.iter (add_float buf) r.Scallop_apps.Common.losses;
  Buffer.add_string buf "acc=";
  add_float buf r.Scallop_apps.Common.accuracy;
  check Alcotest.string "losses and accuracy" "3fc6138418f727f0;3fc366931180e5bb;acc=0;" (Buffer.contents buf)

(* The per-sample trainers: [Mnist_r.train_and_eval] runs each sample
   through [Scallop_layer.forward], [Hwf_app.train_and_eval] through
   [forward_open] on top-k symbol mappings and an open output domain. *)
let report_digest (r : Scallop_apps.Common.report) =
  let buf = Buffer.create 256 in
  List.iter (add_float buf) r.Scallop_apps.Common.losses;
  Buffer.add_string buf "acc=";
  add_float buf r.Scallop_apps.Common.accuracy;
  Buffer.contents buf

let small_config seed ~epochs ~n_train ~n_test =
  {
    Scallop_apps.Common.default_config with
    Scallop_apps.Common.seed;
    epochs;
    n_train;
    n_test;
  }

let test_sum2_sample_training () =
  let r =
    Scallop_apps.Mnist_r.train_and_eval
      (small_config 23 ~epochs:2 ~n_train:48 ~n_test:32)
      Scallop_data.Mnist.Sum2
  in
  check Alcotest.string "losses and accuracy" "3fc98abc13218730;3fb9f3cdc347f5c7;acc=3feb000000000000;"
    (report_digest r)

let test_hwf_sample_training () =
  let r =
    Scallop_apps.Hwf_app.train_and_eval ~max_len:5
      (small_config 29 ~epochs:3 ~n_train:32 ~n_test:32)
  in
  check Alcotest.string "losses and accuracy"
    "3fc61d44a17205a5;3fbad6ba3667fcde;3fb3989e9b2bb5e2;acc=3fc4000000000000;" (report_digest r)

(* The batched trainer at the sum2 per-sample pin's config: its test
   accuracy is strictly between 0 and 1, so a layer that returns garbage
   fails the accuracy half of the pin too. *)
let test_sum2_batched_training () =
  let r =
    Scallop_apps.Mnist_r.train_and_eval_batched ~batch_size:16 ~jobs:1
      (small_config 23 ~epochs:2 ~n_train:48 ~n_test:32)
      Scallop_data.Mnist.Sum2
  in
  check Alcotest.string "losses and accuracy" "3fc8e7a81d57ba04;3fc5805a833f2630;acc=3fd4000000000000;"
    (report_digest r)

(* ---- samplers and foreign predicates ------------------------------------------- *)

(* Every sampler ungrouped, implicitly grouped and [where]-grouped, several
   in one program: weight ties (top<k> keeps input order among equals), a
   sampler read under [not], and a head projection that merges two picks
   (⊕-folded in pick order, visible in the last bits under addmultprob). *)
let sampler_src =
  {|type item(i32, i32)
rel item = {0.31::(0, 4), 0.72::(0, 1), 0.55::(0, 7), 0.55::(0, 2), 0.18::(1, 3), 0.9::(1, 0), 0.44::(1, 5), 0.61::(2, 2), 0.61::(2, 6), 0.27::(2, 1), 0.83::(2, 9), 0.5::(3, 8), 0.35::(3, 3), 0.66::(3, 5)}
type grp(i32)
rel grp = {0.9::(0), 0.8::(1), 0.7::(2), 0.6::(4)}
rel t_all(g, x) = g, x := top<4>(h, y: item(h, y))
rel u_all(g, x) = g, x := uniform<5>(h, y: item(h, y))
rel c_all(g, x) = g, x := categorical<4>(h, y: item(h, y))
rel t_grp(g, x) = x := top<2>(y: item(g, y))
rel u_grp(g, x) = x := uniform<2>(y: item(g, y))
rel c_grp(g, x) = x := categorical<2>(y: item(g, y))
rel t_dom(g, x) = x := top<2>(y: item(g, y) where g: grp(g))
rel u_dom(g, x) = x := uniform<1>(y: item(g, y) where g: grp(g))
rel c_dom(g, x) = x := categorical<2>(y: item(g, y) where g: grp(g))
rel coarse(g, x / 4) = x := top<3>(y: item(g, y))
rel rest(g, x) = item(g, x), not u_grp(g, x)
query t_all
query u_all
query c_all
query t_grp
query u_grp
query c_grp
query t_dom
query u_dom
query c_dom
query coarse
query rest|}

(* range, succ and string_chars with bound and free arguments, succ inside
   a recursive stratum, and a sampler over foreign-derived rows. *)
let foreign_src =
  {|type e(i32, i32)
rel e = {0.6::(0, 1), 0.7::(1, 2), 0.5::(2, 3), 0.8::(3, 4), 0.4::(1, 3), 0.9::(4, 0), 0.3::(2, 2)}
type word(String)
rel word = {0.7::("abca"), 0.4::("ba")}
rel cell(x, y) = range(0, 4, x), range(0, 4, y), e(x, y)
rel inr(x, y) = e(x, y), range(0, 3, x)
rel nxt(x, y) = e(x, _), succ(x, y)
rel prv(x, y) = e(_, y), succ(x, y)
rel chk(x) = e(x, y), succ(x, y)
rel walk(x, y) = e(x, y)
rel walk(x, z) = walk(x, y), succ(y, z), e(y, z)
rel chars(i, c) = word(w), string_chars(w, i, c)
rel at0(w) = word(w), string_chars(w, 0, 'b')
rel pickc(i) = i := uniform<2>(i: chars(i, c))
query cell
query inr
query nxt
query prv
query chk
query walk
query chars
query at0
query pickc|}

(* Output rows and recovered-tag bits of [src] at seeds 0..9. *)
let seeded_digest src spec =
  let compiled = Session.compile src in
  let buf = Buffer.create 16384 in
  for seed = 0 to 9 do
    let config = { (Interp.default_config ()) with Interp.rng = Rng.create seed } in
    let r = Session.run ~config ~provenance:(Registry.create spec) compiled () in
    Buffer.add_string buf (Printf.sprintf "seed %d\n" seed);
    List.iter
      (fun (pred, rows) ->
        Buffer.add_string buf (pred ^ "\n");
        List.iter
          (fun (t, o) ->
            Buffer.add_string buf (Tuple.to_string t);
            add_float buf (Provenance.Output.prob o);
            Buffer.add_char buf '\n')
          rows)
      r.Session.outputs
  done;
  hex buf

let seeded_specs =
  [
    ("boolean", Registry.Boolean);
    ("minmaxprob", Registry.Max_min_prob);
    ("addmultprob", Registry.Add_mult_prob);
    ("topkproofs-3", Registry.Top_k_proofs 3);
  ]

let check_seeded_digests src expected () =
  List.iter2
    (fun (name, spec) want -> check Alcotest.string name want (seeded_digest src spec))
    seeded_specs expected

(* ---- input relations ----------------------------------------------------------- *)

(* Static facts of two relations interleaved, each with duplicates under
   several keys (samplekproofs-1 draws inside every ⊕ that folds them), tags
   of 0 and below 0.5, and nullary, string, i64 and u64 columns. *)
let input_src =
  {|type edge(i32, i32)
type flag()
type name(String, i64)
type big(u64, i64)
type w(usize)
rel edge = {0.3::(0, 1), 0.8::(0, 1), 0.6::(1, 2), 0.2::(1, 2), 0.9::(1, 2), 0.0::(2, 3)}
rel name = {0.9::("bob", 4000000000), 0.3::("alice", -5), 0.6::("bob", 4000000000), ("", 0)}
rel edge = {0.7::(0, 1), 0.1::(2, 3), 0.4::(2, 0), 0.35::(1, 2)}
rel flag = {0.4::(), ()}
rel name = {0.45::("alice", -5), 0.65::("bob", 4000000000)}
rel big = {(18446744073, -4611686018427387903), (1, 2), 0.2::(1, 2), 0.7::(0, 4611686018427387903)}
rel path(a, b) = edge(a, b)
query path|}

(* Caller facts after the static ones: more duplicates, me-groups, and an
   i32 coerced into the usize column. *)
let input_facts =
  let i32 n = Value.int Value.I32 n and p = Provenance.Input.prob in
  [
    ("edge", [ (p 0.55, [| i32 1; i32 2 |]); (p ~me_group:0 0.25, [| i32 0; i32 1 |]) ]);
    ("w", [ (Provenance.Input.none, [| i32 3 |]); (p ~me_group:0 0.5, [| i32 1 |]) ]);
    ("edge", [ (p 0.0, [| i32 5; i32 5 |]); (p ~me_group:1 0.6, [| i32 2; i32 0 |]) ]);
    ("name", [ (p 0.15, [| Value.string "bob"; Value.int Value.I64 4000000000 |]) ]);
  ]

let input_specs =
  Registry.
    [
      Boolean;
      Natural;
      Max_min_prob;
      Add_mult_prob;
      Top_k_proofs 3;
      Sample_k_proofs (1, 3);
      Diff_top_k_proofs_me 3;
      Diff_sample_k_proofs (1, 3);
    ]

(* Each relation's rows with their printed tags and recovered-tag bits, by
   predicate, and the fact ids. *)
let input_rows (type tag) (module P : Provenance.S with type t = tag) rels fact_ids =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (pred, rows) ->
      Buffer.add_string buf (pred ^ "\n");
      List.iter
        (fun (u, (t : tag)) ->
          Buffer.add_string buf (Fmt.str "%s %a " (Tuple.to_string u) P.pp t);
          (match P.recover t with
          | Provenance.Output.O_dual d -> add_dual buf d
          | o -> add_float buf (Provenance.Output.prob o));
          Buffer.add_char buf '\n')
        rows)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rels);
  List.iter
    (fun ((pred, u), id) -> Buffer.add_string buf (Fmt.str "%s%s=%d\n" pred (Tuple.to_string u) id))
    fact_ids;
  Buffer.contents buf

(* The executor's input batches equal the oracle's map database, row for row
   and tag for tag, each side on a fresh provenance instance. *)
let test_input_relations () =
  let c = Session.compile input_src in
  List.iter
    (fun spec ->
      let batches =
        let module P = (val Registry.create spec) in
        let module B = Batch_ops.Make (P) in
        let inputs = B.inputs () in
        let ids = Session.load_facts (module P) c input_facts ~add:(B.input_add inputs) in
        let rels = List.map (fun (pred, b) -> (pred, B.to_list b)) (B.input_batches inputs) in
        B.release ();
        input_rows (module P) rels ids
      in
      let maps =
        let module P = (val Registry.create spec) in
        let module T = Scallop_fuzz.Tree_walker.Make (P) in
        let db, ids = T.input_db c input_facts in
        input_rows (module P)
          (List.map (fun (pred, rel) -> (pred, Tuple.Map.bindings rel)) (T.SMap.bindings db))
          ids
      in
      check Alcotest.string (Registry.spec_name spec) maps batches)
    input_specs;
  (* a false tag does not drop an input fact: false::edge(2, 3) (0.0 and
     0.1 folded) and false::edge(5, 5) print under boolean *)
  let r =
    Session.run ~provenance:(Registry.create Registry.Boolean) c ~facts:input_facts
      ~outputs:[ "edge" ] ()
  in
  let false_rows =
    List.filter_map
      (fun (u, o) -> if Provenance.Output.prob o = 0.0 then Some (Tuple.to_string u) else None)
      (Session.output r "edge")
  in
  check Alcotest.(list string) "false rows kept" [ "(2, 3)"; "(5, 5)" ] false_rows

let suite =
  [
    Alcotest.test_case "operator stream digests" `Quick test_operator_stream;
    Alcotest.test_case "sum3 Session.run digests" `Quick test_sum3_runs;
    Alcotest.test_case "sum3 training losses and accuracy" `Quick test_sum3_training;
    Alcotest.test_case "sampler digests at 10 seeds" `Quick
      (check_seeded_digests sampler_src
         [
           "2bf6dfc92557c851e5e4fa1c91bce7d6";
           "e8f9401dc89fab2a21b557e2bc108d25";
           "47eef825fe2c2c9bc824380bb64945d0";
           "f563521b44b6dae413fcb2b897bb4cc2";
         ]);
    Alcotest.test_case "foreign-predicate digests at 10 seeds" `Quick
      (check_seeded_digests foreign_src
         [
           "7a5c73356ca880fc720b786475cc5eaa";
           "513d658e8d30543831d6d8f32defc477";
           "4cbea16b37a3cd5eb4e90e230341c1ab";
           "faf87f151d71f1304e1cb5ffe4655afc";
         ]);
    Alcotest.test_case "sum2 per-sample training" `Quick test_sum2_sample_training;
    Alcotest.test_case "hwf per-sample training" `Quick test_hwf_sample_training;
    Alcotest.test_case "sum2 batched training" `Quick test_sum2_batched_training;
    Alcotest.test_case "input relations = the map builder" `Quick test_input_relations;
  ]
