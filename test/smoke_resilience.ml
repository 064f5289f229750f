(** Smoke check for the fault-tolerant training runtime (the @smoke alias):

    1. train a small MLP for 20 optimizer steps straight through;
    2. re-train with checkpointing, kill the run after step 7, resume, and
       require the final parameters to be bit-identical to the straight run;
    3. corrupt the newest snapshot and require resume to fall back to an
       older valid generation — and still reproduce the same parameters.

    Exits nonzero on any violation. *)

open Scallop_tensor
open Scallop_nn
open Scallop_apps
module Rng = Scallop_utils.Rng
module Atomic_io = Scallop_utils.Atomic_io

let failures = ref 0

let require name ok =
  if ok then Fmt.pr "  ok: %s@." name
  else begin
    incr failures;
    Fmt.epr "  FAILED: %s@." name
  end

(* 10 samples x 2 epochs = 20 optimizer steps *)
let synth_data =
  let rng = Rng.create 2026 in
  List.init 10 (fun _ ->
      let x = Nd.init [| 1; 8 |] (fun _ -> Rng.float rng) in
      (x, Rng.int rng 4))

let config =
  { Common.default_config with Common.epochs = 2; n_train = List.length synth_data; n_test = 0 }

let make () =
  let rng = Rng.create 7 in
  let mlp = Layers.Mlp.create rng [ 8; 16; 4 ] in
  let opt = Optim.adam ~lr:0.01 (Layers.Mlp.params mlp) in
  (mlp, opt)

let run ?checkpoint ?crash_at (mlp, opt) =
  let steps = ref 0 in
  ignore
    (Common.run_task ?checkpoint ~task:"smoke" ~config ~train_data:synth_data ~test_data:[]
       ~opt
       ~train_step:(fun (x, c) ->
         (match crash_at with
         | Some n ->
             incr steps;
             if !steps > n then raise Exit
         | None -> ());
         Common.bce
           (Layers.Mlp.classify mlp (Autodiff.const x))
           (Autodiff.const (Common.one_hot 4 c)))
       ~eval_sample:(fun _ -> true)
       ())

let params_blob (mlp, _) =
  String.concat ""
    (List.map
       (fun (p : Autodiff.t) -> Serialize.nd_to_string p.Autodiff.value)
       (Layers.Mlp.params mlp))

let () =
  Fmt.pr "smoke: crash-resume determinism (20 steps, kill at 7)@.";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scallop-smoke-resilience-%d" (Unix.getpid ()))
  in
  Atomic_io.clear ~dir;
  let ck = { (Common.checkpoint dir) with Common.every_n_steps = 2 } in
  let straight = make () in
  run straight;
  let reference = params_blob straight in
  let crashed = make () in
  (try
     run ~checkpoint:ck ~crash_at:7 crashed;
     require "injected crash fired" false
   with Exit -> ());
  let resumed = make () in
  run ~checkpoint:ck resumed;
  require "resumed params bit-identical to uninterrupted run"
    (String.equal (params_blob resumed) reference);
  (* corrupt the newest snapshot: resume must fall back, then still converge *)
  Atomic_io.clear ~dir;
  let crashed2 = make () in
  (try run ~checkpoint:ck ~crash_at:12 crashed2 with Exit -> ());
  let resume_steps () =
    let _, opt = make () in
    match Common.try_resume ~ck ~opt ~rngs:[] with Some (s, _, _) -> s | None -> 0
  in
  let before = resume_steps () in
  (match List.rev (Atomic_io.Generations.list ~dir) with
  | newest :: _ ->
      let path = Atomic_io.Generations.path ~dir newest in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = Bytes.of_string (really_input_string ic len) in
      close_in ic;
      Bytes.set body (len - 1) (Char.chr (Char.code (Bytes.get body (len - 1)) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc body;
      close_out oc
  | [] -> require "snapshots exist on disk" false);
  let after = resume_steps () in
  require "corrupt snapshot falls back to an older generation" (after > 0 && after < before);
  let resumed2 = make () in
  run ~checkpoint:ck resumed2;
  require "post-fallback params bit-identical to uninterrupted run"
    (String.equal (params_blob resumed2) reference);
  Atomic_io.clear ~dir;
  if !failures > 0 then exit 1
