(** MNIST-R: the synthetic MNIST test suite (paper Sec. 6.1, Appendix C.1).

    Seven subtasks over handwritten digits — arithmetic (sum2/3/4),
    comparison (less-than), negation (not-3-or-4) and counting (count-3,
    count-3-or-4) — each trained with supervision on the task output only.
    A single 10-way MLP classifier plays the CNN's role; its distribution
    feeds the task's Scallop program through the differentiable layer. *)

open Scallop_tensor
open Scallop_nn
open Scallop_core

let program_of (task : Scallop_data.Mnist.task) =
  match task with
  | Sum2 -> Programs.mnist_sum2
  | Sum3 -> Programs.mnist_sum3
  | Sum4 -> Programs.mnist_sum4
  | Less_than -> Programs.mnist_less_than
  | Not_3_or_4 -> Programs.mnist_not_3_or_4
  | Count_3 -> Programs.mnist_count_3
  | Count_3_or_4 -> Programs.mnist_count_3_or_4

let digit_tuples = Array.init 10 (fun v -> Tuple.of_list [ Value.int Value.U32 v ])

let digit_tuples_with_id id =
  Array.init 10 (fun v -> Tuple.of_list [ Value.int Value.U32 id; Value.int Value.U32 v ])

(** Interface between perception outputs and the program: the list of input
    mappings, the output predicate, and the candidate tuples per task. *)
let interface (task : Scallop_data.Mnist.task) (probs : Autodiff.t list) :
    Scallop_layer.input_mapping list * string * Tuple.t array =
  let dense pred p =
    Scallop_layer.dense_mapping ~pred ~tuples:digit_tuples ~probs:p ~mutually_exclusive:true
  in
  let int_candidates n ty = Array.init n (fun i -> Tuple.of_list [ Value.int ty i ]) in
  let bool_candidates =
    [| Tuple.of_list [ Value.bool false ]; Tuple.of_list [ Value.bool true ] |]
  in
  match (task, probs) with
  | Sum2, [ a; b ] -> ([ dense "digit_1" a; dense "digit_2" b ], "sum_2", int_candidates 19 Value.U32)
  | Sum3, [ a; b; c ] ->
      ([ dense "digit_1" a; dense "digit_2" b; dense "digit_3" c ], "sum_3", int_candidates 28 Value.U32)
  | Sum4, [ a; b; c; d ] ->
      ( [ dense "digit_1" a; dense "digit_2" b; dense "digit_3" c; dense "digit_4" d ],
        "sum_4",
        int_candidates 37 Value.U32 )
  | Less_than, [ a; b ] -> ([ dense "digit_1" a; dense "digit_2" b ], "less_than", bool_candidates)
  | Not_3_or_4, [ a ] ->
      ( [ Scallop_layer.dense_mapping ~pred:"digit" ~tuples:digit_tuples ~probs:a ~mutually_exclusive:true ],
        "not_3_or_4",
        [| Tuple.unit |] )
  | (Count_3 | Count_3_or_4), ps ->
      ( List.mapi
          (fun id p ->
            Scallop_layer.dense_mapping ~pred:"digit" ~tuples:(digit_tuples_with_id id) ~probs:p
              ~mutually_exclusive:true)
          ps,
        (if task = Count_3 then "count_3" else "count_3_or_4"),
        int_candidates 9 Value.USize )
  | _ -> invalid_arg "Mnist_r.interface: wrong number of perception outputs"

(** Target candidate index for a sample (tasks encode outputs as ints). *)
let target_index (task : Scallop_data.Mnist.task) (s : Scallop_data.Mnist.sample) = ignore task; s.Scallop_data.Mnist.target

type model = { mlp : Layers.Mlp.t; compiled : Session.compiled; task : Scallop_data.Mnist.task }

let create_model ~rng ~dim task =
  {
    mlp = Layers.Mlp.create rng [ dim; 64; 10 ];
    compiled = Session.compile (program_of task);
    task;
  }

(** The layer sample of one MNIST sample: classify its images, then map
    the distributions onto the task's interface.  Also returns the output
    predicate and candidate tuples, which depend on the task alone. *)
let layer_sample (m : model) (s : Scallop_data.Mnist.sample) =
  let probs =
    List.map (fun img -> Layers.Mlp.classify m.mlp (Autodiff.const img)) s.Scallop_data.Mnist.images
  in
  let inputs, out_pred, candidates = interface m.task probs in
  ({ Scallop_layer.inputs; static_facts = [] }, out_pred, candidates)

(** {!layer_sample} over a minibatch, with the output predicate and
    candidates of its task. *)
let layer_batch (m : model) (samples : Scallop_data.Mnist.sample array) =
  let mapped = Array.map (layer_sample m) samples in
  let out_pred, candidates =
    if Array.length mapped = 0 then ("", [||])
    else
      let _, out_pred, candidates = mapped.(0) in
      (out_pred, candidates)
  in
  (Array.map (fun (ls, _, _) -> ls) mapped, out_pred, candidates)

let forward ?(spec = Registry.Diff_top_k_proofs_me 3) (m : model)
    (s : Scallop_data.Mnist.sample) : Autodiff.t =
  let ls, out_pred, candidates = layer_sample m s in
  Scallop_layer.forward ~spec ~compiled:m.compiled ~inputs:ls.Scallop_layer.inputs ~out_pred
    ~candidates ()

(** Batched forward: classify all images (main domain), then run the logic
    program for the whole minibatch across the pool. *)
let forward_batch ?(spec = Registry.Diff_top_k_proofs_me 3) ?pool ?jobs (m : model)
    (samples : Scallop_data.Mnist.sample array) : Autodiff.t array =
  let layer_samples, out_pred, candidates = layer_batch m samples in
  Scallop_layer.forward_batch ?pool ?jobs ~spec ~compiled:m.compiled ~out_pred ~candidates
    layer_samples

(** Resilient batched forward: per-sample outcome slots, with quarantine
    and budget degradation (see {!Scallop_layer.resilient_forward_batch}). *)
let resilient_forward_batch ?(spec = Registry.Diff_top_k_proofs_me 3) ?pool ?jobs ?config
    ?faults (m : model) (samples : Scallop_data.Mnist.sample array) :
    (Autodiff.t, Exec_error.t) result array =
  let layer_samples, out_pred, candidates = layer_batch m samples in
  Scallop_layer.resilient_forward_batch ?pool ?jobs ?config ?faults ~spec ~compiled:m.compiled
    ~out_pred ~candidates layer_samples

(** The predicted output index of a probability row. *)
let decode task y =
  if task = Scallop_data.Mnist.Not_3_or_4 then
    if Nd.get1 (Autodiff.value y) 0 > 0.5 then 1 else 0
  else Nd.argmax_row (Autodiff.value y) 0

let predict ?spec (m : model) s = decode m.task (forward ?spec m s)

(** Accuracy of the perception component itself (for RQ5 failure analysis). *)
let digit_accuracy (m : model) (data : Scallop_data.Mnist.sample list) =
  let total = ref 0 and correct = ref 0 in
  List.iter
    (fun (s : Scallop_data.Mnist.sample) ->
      List.iter2
        (fun img d ->
          incr total;
          let p = Layers.Mlp.classify m.mlp (Autodiff.const img) in
          if Nd.argmax_row (Autodiff.value p) 0 = d then incr correct)
        s.Scallop_data.Mnist.images s.Scallop_data.Mnist.digits)
    data;
  float_of_int !correct /. float_of_int (max 1 !total)

(* What both trainers build from a config: the model, its optimizer, the
   train and test splits, and a sample's BCE target row. *)
let setup ~dim ~noise (config : Common.config) task =
  let rng = Scallop_utils.Rng.create config.Common.seed in
  let data = Scallop_data.Mnist.create ~noise ~dim ~seed:(config.Common.seed + 1) () in
  let m = create_model ~rng ~dim task in
  let opt = Optim.adam ~lr:config.Common.lr (Layers.Mlp.params m.mlp) in
  let train_data = Scallop_data.Mnist.dataset data task config.Common.n_train in
  let test_data = Scallop_data.Mnist.dataset data task config.Common.n_test in
  let n_candidates =
    let zeros _ = Autodiff.const (Nd.zeros [| 1; 10 |]) in
    let _, _, cands = interface task (List.init (Scallop_data.Mnist.num_images task) zeros) in
    Array.length cands
  in
  let target_row (s : Scallop_data.Mnist.sample) =
    if task = Not_3_or_4 then Nd.of_array [| 1; 1 |] [| float_of_int s.target |]
    else Common.one_hot n_candidates (target_index task s)
  in
  (m, opt, train_data, test_data, target_row)

let train_and_eval ?(dim = 16) ?(noise = 0.5) ?checkpoint (config : Common.config)
    (task : Scallop_data.Mnist.task) : Common.report =
  let m, opt, train_data, test_data, target_row = setup ~dim ~noise config task in
  let spec = config.Common.provenance in
  Common.run_task ?checkpoint ~task:(Scallop_data.Mnist.task_name task) ~config ~train_data
    ~test_data ~opt
    ~train_step:(fun s ->
      let y = forward ~spec m s in
      Common.bce y (Autodiff.const (target_row s)))
    ~eval_sample:(fun s -> predict ~spec m s = target_index task s)
    ()

(** Minibatched counterpart of {!train_and_eval}: the logic-program
    executions of each minibatch fan out over [jobs] domains through one
    shared pool; gradients route back to the right samples positionally. *)
let train_and_eval_batched ?(dim = 16) ?(noise = 0.5) ?(batch_size = 16) ?(jobs = 1)
    ?checkpoint (config : Common.config) (task : Scallop_data.Mnist.task) : Common.report =
  let m, opt, train_data, test_data, target_row = setup ~dim ~noise config task in
  let spec = config.Common.provenance in
  let faults = Scallop_utils.Faults.create () in
  let zero = Autodiff.const (Nd.scalar 0.0) in
  Scallop_utils.Pool.with_pool (max 1 jobs) (fun pool ->
      Common.run_task_batched ?checkpoint ~faults ~task:(Scallop_data.Mnist.task_name task)
        ~config ~batch_size ~train_data ~test_data ~opt
        ~train_batch:(fun samples ->
          let ys = resilient_forward_batch ~spec ~pool ~faults m samples in
          Array.map2
            (fun y s ->
              match y with
              | Error _ -> zero
              | Ok y -> Common.bce y (Autodiff.const (target_row s)))
            ys samples)
        ~eval_batch:(fun samples ->
          let ys = resilient_forward_batch ~spec ~pool m samples in
          Array.map2
            (fun y s ->
              match y with Error _ -> false | Ok y -> decode task y = target_index task s)
            ys samples)
        ())
