(** Fault-injection suite for the fault-tolerant training runtime:

    - injected crashes at several kill points, with resume-from-checkpoint
      required to reproduce the uninterrupted run's parameters bit for bit;
    - checkpoint corruption (byte flips, truncation) falling back to the
      previous valid generation — and still converging to the same params;
    - NaN injection into the perception layer via
      [Layers.classify_fault_hook], quarantined by the guarded optimizer
      step without poisoning training;
    - provenance degradation: a budget too tight for the full top-k spec is
      rescued by retrying down [Registry.degrade]'s ladder.

    Everything here is deterministic: the degradation trigger uses the
    machine-independent [max_iterations] budget axis (proof tags on a
    diamond chain saturate later than max-min tags), not wall-clock. *)

open Scallop_tensor
open Scallop_nn
open Scallop_core
open Scallop_apps
module Rng = Scallop_utils.Rng
module Faults = Scallop_utils.Faults
module Atomic_io = Scallop_utils.Atomic_io

let check = Alcotest.check

(* ---- a small self-contained trainer whose parameters we can inspect ---------- *)

let synth_data =
  let rng = Rng.create 2026 in
  List.init 24 (fun _ ->
      let x = Nd.init [| 1; 8 |] (fun _ -> Rng.float rng) in
      (x, Rng.int rng 4))

let trainer_config =
  { Common.default_config with Common.epochs = 2; n_train = List.length synth_data; n_test = 0 }

let make () =
  let rng = Rng.create 7 in
  let mlp = Layers.Mlp.create rng [ 8; 16; 4 ] in
  let opt = Optim.adam ~lr:0.01 (Layers.Mlp.params mlp) in
  (mlp, opt)

(* Train for [trainer_config.epochs] epochs; with [crash_at], raise [Exit]
   once [crash_at] optimizer steps have completed (simulating a crash in the
   middle of the next step). *)
let run ?checkpoint ?crash_at (mlp, opt) =
  let steps = ref 0 in
  Common.run_task ?checkpoint ~task:"synthetic" ~config:trainer_config ~train_data:synth_data
    ~test_data:[] ~opt
    ~train_step:(fun (x, c) ->
      (match crash_at with
      | Some n ->
          incr steps;
          if !steps > n then raise Exit
      | None -> ());
      Common.bce (Layers.Mlp.classify mlp (Autodiff.const x)) (Autodiff.const (Common.one_hot 4 c)))
    ~eval_sample:(fun _ -> true)
    ()

let params_blob (mlp, _) =
  String.concat ""
    (List.map
       (fun (p : Autodiff.t) -> Serialize.nd_to_string p.Autodiff.value)
       (Layers.Mlp.params mlp))

let reference_blob =
  lazy
    (let m = make () in
     ignore (run m);
     params_blob m)

let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scallop-test-resilience-%s-%d" name (Unix.getpid ()))
  in
  Atomic_io.clear ~dir;
  dir

let ck_of dir = { (Common.checkpoint dir) with Common.every_n_steps = 2 }

(* Steps recovered by a fresh resume attempt (0 when nothing valid). *)
let resume_steps ck =
  let _, opt = make () in
  match Common.try_resume ~ck ~opt ~rngs:[] with Some (steps, _, _) -> steps | None -> 0

(* ---- 1. crash + resume is bit-identical at every kill point ------------------- *)

let test_crash_resume_kill_point kill () =
  let dir = fresh_dir (Printf.sprintf "kill%d" kill) in
  let ck = ck_of dir in
  let crashed = make () in
  (try
     ignore (run ~checkpoint:ck ~crash_at:kill crashed);
     Alcotest.fail "injected crash did not fire"
   with Exit -> ());
  let recovered = resume_steps ck in
  if recovered <= 0 || recovered > kill then
    Alcotest.failf "recovered %d steps after killing at step %d" recovered kill;
  let resumed = make () in
  ignore (run ~checkpoint:ck resumed);
  check Alcotest.bool
    (Printf.sprintf "kill@%d: resumed params bit-identical to uninterrupted run" kill)
    true
    (String.equal (params_blob resumed) (Lazy.force reference_blob));
  Atomic_io.clear ~dir:dir

(* ---- 2. corrupted newest snapshot falls back to the previous generation ------- *)

let corrupt_newest ~dir f =
  match List.rev (Atomic_io.Generations.list ~dir) with
  | [] -> Alcotest.fail "no snapshot generations on disk"
  | newest :: _ ->
      let path = Atomic_io.Generations.path ~dir newest in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let corrupted = f body in
      let oc = open_out_bin path in
      output_string oc corrupted;
      close_out oc

let test_corruption_fallback name corrupter () =
  let dir = fresh_dir name in
  let ck = ck_of dir in
  let crashed = make () in
  (try ignore (run ~checkpoint:ck ~crash_at:12 crashed) with Exit -> ());
  let before = resume_steps ck in
  corrupt_newest ~dir corrupter;
  let after = resume_steps ck in
  if not (after > 0 && after < before) then
    Alcotest.failf "expected fallback to an older generation, got %d steps (was %d)" after
      before;
  (* replay from the older snapshot must still land on the reference params *)
  let resumed = make () in
  ignore (run ~checkpoint:ck resumed);
  check Alcotest.bool "params after corrupted-snapshot fallback" true
    (String.equal (params_blob resumed) (Lazy.force reference_blob));
  Atomic_io.clear ~dir

let flip_last_byte body =
  let b = Bytes.of_string body in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let truncate_half body = String.sub body 0 (String.length body / 2)

(* ---- 3. NaN injection through the perception fault hook ----------------------- *)

let with_fault_hook hook f =
  Layers.classify_fault_hook := Some hook;
  Fun.protect ~finally:(fun () -> Layers.classify_fault_hook := None) f

let test_nan_injection_quarantined () =
  let calls = ref 0 in
  let report =
    with_fault_hook
      (fun y ->
        incr calls;
        if !calls mod 5 = 0 then Nd.map (fun _ -> Float.nan) y else y)
      (fun () -> run (make ()))
  in
  if report.Common.faults.Faults.nan_quarantined <= 0 then
    Alcotest.fail "no NaN losses were quarantined despite the injected faults";
  (* the poisoned steps were skipped: the loss curve stays finite *)
  List.iter
    (fun l ->
      if not (Float.is_finite l) then Alcotest.failf "epoch loss %f is not finite" l)
    report.Common.losses

let test_nan_injection_params_finite () =
  let m = make () in
  let calls = ref 0 in
  ignore
    (with_fault_hook
       (fun y ->
         incr calls;
         if !calls mod 3 = 0 then Nd.map (fun _ -> Float.nan) y else y)
       (fun () -> run m));
  let mlp, _ = m in
  List.iter
    (fun (p : Autodiff.t) ->
      if not (Nd.is_finite p.Autodiff.value) then
        Alcotest.fail "non-finite parameter survived NaN quarantine")
    (Layers.Mlp.params mlp)

let test_clean_run_no_faults () =
  let report = run (make ()) in
  check Alcotest.int "clean run quarantines nothing" 0 (Faults.total report.Common.faults)

(* ---- 4. provenance degradation under a tight budget --------------------------- *)

(* K unequal diamonds: a_i -0.9-> a_{i+1} directly, and a_i -0.4-> m_i -0.4->
   a_{i+1} through the long arm.  Second-best proofs of reach(0, 2K) arrive
   one fixpoint iteration after the best one, so top-k tags (k >= 2)
   saturate at iteration 9+, single-proof tags at 8: max_iterations = 8
   deterministically fails k in {8,4,2} and succeeds from k = 1 down. *)
let reach_src =
  "type edge(i32, i32)\n\
   rel reach(x, y) = edge(x, y)\n\
   rel reach(x, z) = reach(x, y), edge(y, z)\n\
   query reach"

let k_diamonds = 7

let diamond_edges =
  let e = ref [] in
  for i = 0 to k_diamonds - 1 do
    let a = 2 * i and m = (2 * i) + 1 and b = 2 * (i + 1) in
    e := (0.9, a, b) :: (0.4, a, m) :: (0.4, m, b) :: !e
  done;
  Array.of_list (List.rev !e)

let diamond_tuples =
  Array.map
    (fun (_, x, y) -> Tuple.of_list [ Value.int Value.I32 x; Value.int Value.I32 y ])
    diamond_edges

let diamond_sample () =
  let probs =
    Autodiff.const
      (Nd.init [| 1; Array.length diamond_edges |] (fun i ->
           let p, _, _ = diamond_edges.(i) in
           p))
  in
  {
    Scallop_layer.inputs =
      [ Scallop_layer.dense_mapping ~pred:"edge" ~tuples:diamond_tuples ~probs
          ~mutually_exclusive:false ];
    static_facts = [];
  }

let diamond_candidates =
  [| Tuple.of_list [ Value.int Value.I32 0; Value.int Value.I32 (2 * k_diamonds) ] |]

let tight_config =
  { (Interp.default_config ()) with Interp.budget = Budget.make ~max_iterations:8 () }

let test_degradation_ladder_shape () =
  let ladder = Registry.degradation_ladder (Registry.Diff_top_k_proofs_me 8) in
  check Alcotest.bool "ladder from difftopkproofs-me-8 halves k, then min-max" true
    (ladder
    = [ Registry.Diff_top_k_proofs_me 8; Registry.Diff_top_k_proofs_me 4;
        Registry.Diff_top_k_proofs_me 2; Registry.Diff_top_k_proofs_me 1;
        Registry.Diff_max_min_prob ]);
  check Alcotest.bool "the bottom rung does not degrade further" true
    (Registry.degrade Registry.Diff_max_min_prob = None);
  check Alcotest.bool "exact WMC falls back to top-k enumeration" true
    (Registry.degrade Registry.Diff_exact_prob = Some (Registry.Diff_top_k_proofs 3))

let test_tight_budget_fails_plain () =
  let compiled = Session.compile reach_src in
  let r =
    Scallop_layer.try_forward_batch ~config:tight_config
      ~spec:(Registry.Diff_top_k_proofs_me 8) ~compiled ~out_pred:"reach"
      ~candidates:diamond_candidates
      [| diamond_sample () |]
  in
  match r.(0) with
  | Error (Exec_error.Budget_exceeded { kind = Exec_error.Iterations; _ }) -> ()
  | Error e -> Alcotest.failf "wrong diagnostic: %s" (Session.error_string e)
  | Ok _ -> Alcotest.fail "full-fidelity run fit in a budget sized to exclude it"

let test_degradation_rescues_sample () =
  let compiled = Session.compile reach_src in
  let faults = Faults.create () in
  let r =
    Scallop_layer.resilient_forward_batch ~config:tight_config ~faults
      ~spec:(Registry.Diff_top_k_proofs_me 8) ~compiled ~out_pred:"reach"
      ~candidates:diamond_candidates
      [| diamond_sample () |]
  in
  (match r.(0) with
  | Ok y ->
      let p = Nd.get1 (Autodiff.value y) 0 in
      if not (Float.is_finite p && p >= 0.0 && p <= 1.0) then
        Alcotest.failf "degraded output %f is not a probability" p
  | Error e -> Alcotest.failf "degradation did not rescue the sample: %s" (Session.error_string e));
  check Alcotest.int "exactly one sample degraded" 1 faults.Faults.degraded;
  check Alcotest.int "nothing skipped" 0 faults.Faults.budget_skipped

let test_max_degrade_zero_skips () =
  let compiled = Session.compile reach_src in
  let faults = Faults.create () in
  let r =
    Scallop_layer.resilient_forward_batch ~config:tight_config ~max_degrade:0 ~faults
      ~spec:(Registry.Diff_top_k_proofs_me 8) ~compiled ~out_pred:"reach"
      ~candidates:diamond_candidates
      [| diamond_sample () |]
  in
  (match r.(0) with
  | Error (Exec_error.Budget_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong diagnostic: %s" (Session.error_string e)
  | Ok _ -> Alcotest.fail "max_degrade:0 still retried the ladder");
  check Alcotest.int "sample counted as skipped" 1 faults.Faults.budget_skipped;
  check Alcotest.int "no degradations" 0 faults.Faults.degraded

let test_nan_probs_quarantined_in_layer () =
  let compiled = Session.compile reach_src in
  let faults = Faults.create () in
  let nan_sample =
    {
      Scallop_layer.inputs =
        [ Scallop_layer.dense_mapping ~pred:"edge" ~tuples:diamond_tuples
            ~probs:(Autodiff.const (Nd.init [| 1; Array.length diamond_edges |] (fun _ -> Float.nan)))
            ~mutually_exclusive:false ];
      static_facts = [];
    }
  in
  let r =
    Scallop_layer.resilient_forward_batch ~faults ~spec:(Registry.Diff_top_k_proofs_me 3)
      ~compiled ~out_pred:"reach" ~candidates:diamond_candidates
      [| nan_sample; diamond_sample () |]
  in
  (match r.(0) with
  | Error (Exec_error.Non_finite _) -> ()
  | Error e -> Alcotest.failf "wrong diagnostic: %s" (Session.error_string e)
  | Ok _ -> Alcotest.fail "NaN input probabilities produced an un-quarantined output");
  (match r.(1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "healthy sibling sample failed: %s" (Session.error_string e));
  check Alcotest.int "one quarantine" 1 faults.Faults.nan_quarantined

let suite =
  [
    Alcotest.test_case "crash@3 + resume is bit-identical" `Quick
      (test_crash_resume_kill_point 3);
    Alcotest.test_case "crash@7 + resume is bit-identical" `Quick
      (test_crash_resume_kill_point 7);
    Alcotest.test_case "crash@12 + resume is bit-identical" `Quick
      (test_crash_resume_kill_point 12);
    Alcotest.test_case "byte-flipped snapshot falls back a generation" `Quick
      (test_corruption_fallback "flip" flip_last_byte);
    Alcotest.test_case "truncated snapshot falls back a generation" `Quick
      (test_corruption_fallback "trunc" truncate_half);
    Alcotest.test_case "injected NaNs are quarantined, training completes" `Quick
      test_nan_injection_quarantined;
    Alcotest.test_case "params stay finite under NaN injection" `Quick
      test_nan_injection_params_finite;
    Alcotest.test_case "clean run records zero faults" `Quick test_clean_run_no_faults;
    Alcotest.test_case "degradation ladder shape" `Quick test_degradation_ladder_shape;
    Alcotest.test_case "tight budget fails the full-fidelity run" `Quick
      test_tight_budget_fails_plain;
    Alcotest.test_case "degradation ladder rescues the sample" `Quick
      test_degradation_rescues_sample;
    Alcotest.test_case "max_degrade:0 skips instead of retrying" `Quick
      test_max_degrade_zero_skips;
    Alcotest.test_case "NaN input probabilities are quarantined in-batch" `Quick
      test_nan_probs_quarantined_in_layer;
  ]
