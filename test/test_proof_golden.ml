(** Golden pin of the top-k-proofs tag arithmetic.  Digests of a seeded
    stream of ∨k/∧k/¬k calls (proof literals, per-proof probability bits,
    and the bits of [Wmc.prob] and [Wmc.dual]), of sum3 runs through
    [Session.run], and of a short sum3 training run.  The expected values
    were recorded from the map-based proof representation; any rewrite of
    the proof kernels must reproduce them bit for bit. *)

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

let suite =
  [
    Alcotest.test_case "operator stream digests" `Quick test_operator_stream;
    Alcotest.test_case "sum3 Session.run digests" `Quick test_sum3_runs;
    Alcotest.test_case "sum3 training losses and accuracy" `Quick test_sum3_training;
  ]
