(** Shared configuration, reporting and training utilities for the eight
    benchmark applications (paper Sec. 6.1).

    The training skeletons here are the {e fault-tolerant runtime} of the
    reproduction (DESIGN.md "Fault tolerance"):

    - {e crash-safe checkpointing}: with [?checkpoint], {!run_task} and
      {!run_task_batched} periodically snapshot parameters, optimizer state
      (Adam m/v/t or SGD velocity), RNG stream positions and the loss
      accumulators through {!Scallop_tensor.Serialize} into a
      {!Scallop_utils.Atomic_io} generation directory, and resume from the
      newest {e valid} snapshot on restart — a run killed at any step and
      resumed produces bit-identical final parameters to the uninterrupted
      run, and a corrupted latest snapshot falls back to the previous
      generation.
    - {e numeric guardrails}: every optimizer step goes through a guarded
      backward pass; an example (or minibatch) whose loss or gradients
      contain NaN/Inf is skipped and counted instead of poisoning the
      parameters, and [config.clip_grad] bounds the global gradient norm.
    - {e fault accounting}: quarantined/degraded example counts surface in
      {!report}. *)

open Scallop_tensor
open Scallop_core
module Faults = Scallop_utils.Faults
module Codec = Scallop_utils.Codec

type config = {
  seed : int;
  provenance : Registry.spec;
  epochs : int;
  n_train : int;
  n_test : int;
  lr : float;
  clip_grad : float option;
      (** when set, clip the global gradient L2 norm to this value before
          every optimizer step *)
}

let default_config =
  {
    seed = 1234;
    provenance = Registry.Diff_top_k_proofs_me 3;
    epochs = 3;
    n_train = 256;
    n_test = 100;
    lr = 0.01;
    clip_grad = None;
  }

type report = {
  task : string;
  provenance : string;
  accuracy : float;  (** test accuracy in [0,1] *)
  epoch_time : float;  (** mean wall-clock seconds per training epoch *)
  losses : float list;  (** mean training loss per epoch *)
  faults : Faults.t;  (** quarantined / degraded / skipped example counts *)
}

let pp_report fmt r =
  Fmt.pf fmt "%-14s %-22s acc=%5.1f%%  t/epoch=%6.2fs" r.task r.provenance (100.0 *. r.accuracy)
    r.epoch_time;
  if Faults.total r.faults > 0 then Fmt.pf fmt "  [faults: %a]" Faults.pp r.faults

let provenance_name spec = Provenance.name (Registry.create spec)

(** One-hot target row for BCE training. *)
let one_hot n i = Nd.init [| 1; n |] (fun j -> if j = i then 1.0 else 0.0)

let bce = Autodiff.bce_loss ~eps:1e-6

(** Sum a non-empty list of scalar losses into one backward root. *)
let sum_losses = function
  | [] -> Autodiff.const (Nd.scalar 0.0)
  | l :: rest -> List.fold_left Autodiff.add l rest

(** Split [l] into consecutive arrays of at most [size] elements. *)
let chunks_of size l =
  if size <= 0 then invalid_arg "Common.chunks_of: size must be positive";
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else Array.of_list (List.rev cur) :: acc)
    | x :: rest ->
        if n = size then go (Array.of_list (List.rev cur) :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

(* ---- crash-safe checkpointing ------------------------------------------------------ *)

(** Checkpoint policy for a training run: snapshots go to [dir] every
    [every_n_steps] optimizer steps, keeping the last [keep] generations
    (so a corrupted newest snapshot still leaves valid fallbacks). *)
type checkpoint = { dir : string; every_n_steps : int; keep : int }

let checkpoint ?(every_n_steps = 25) ?(keep = 3) dir =
  if every_n_steps <= 0 then invalid_arg "Common.checkpoint: every_n_steps must be positive";
  { dir; every_n_steps; keep }

(* Payload layout (wrapped in Atomic_io's checksummed envelope):
   format tag, completed optimizer steps, per-epoch losses so far
   (accumulation order), partial-epoch loss sum, parameter values,
   optimizer state, extra RNG stream positions. *)
let payload_format = 1

let checkpoint_payload ~done_steps ~losses ~total ~(opt : Optim.t) ~rngs : string =
  let b = Buffer.create 4096 in
  Codec.add_int b payload_format;
  Codec.add_int b done_steps;
  Codec.add_list Codec.add_f64 b losses;
  Codec.add_f64 b total;
  Serialize.put_params b opt.Optim.params;
  Serialize.put_optim b opt;
  Codec.add_list Serialize.put_rng b rngs;
  Buffer.contents b

(** Restore a payload produced by {!checkpoint_payload} into [opt] (params
    + optimizer state, in place) and [rngs]; returns
    [(done_steps, losses, total)].  Raises [Serialize.Corrupt] on any
    structural mismatch. *)
let restore_checkpoint ~payload ~(opt : Optim.t) ~rngs : int * float list * float =
  let r = Codec.reader payload in
  let fmt = Codec.int r in
  if fmt <> payload_format then Codec.fail "unknown checkpoint format %d" fmt;
  let done_steps = Codec.int r in
  let losses = Codec.list "loss count" Codec.f64 r in
  let total = Codec.f64 r in
  Serialize.get_params_into r opt.Optim.params;
  Serialize.get_optim_into r opt;
  let n_rngs = Codec.int r in
  if n_rngs <> List.length rngs then
    Codec.fail "checkpoint holds %d RNG streams, caller supplied %d" n_rngs (List.length rngs);
  List.iter (Serialize.get_rng_into r) rngs;
  (done_steps, losses, total)

(* Resume-from-latest-valid: a snapshot that checksums but does not fit the
   live model (e.g. the architecture changed) is skipped like a corrupt
   one — try the next older generation, or start fresh. *)
let try_resume ~(ck : checkpoint) ~opt ~rngs : (int * float list * float) option =
  Option.map snd
    (Scallop_utils.Atomic_io.load_latest ~dir:ck.dir ~decode:(fun payload ->
         restore_checkpoint ~payload ~opt ~rngs))

(* ---- guarded optimizer step -------------------------------------------------------- *)

(* Run one backward + step with the numeric guardrails: returns the loss
   value on success, or [None] after quarantining a non-finite loss or
   gradient (the optimizer is left untouched and gradients are cleared). *)
let guarded_step ~(config : config) ~(opt : Optim.t) ~(faults : Faults.t) loss : float option
    =
  let v = Nd.get1 (Autodiff.value loss) 0 in
  if not (Float.is_finite v) then begin
    faults.Faults.nan_quarantined <- faults.Faults.nan_quarantined + 1;
    opt.Optim.zero_grad ();
    None
  end
  else begin
    opt.Optim.zero_grad ();
    match Autodiff.backward_guarded loss with
    | () ->
        (match config.clip_grad with
        | Some max_norm -> ignore (Optim.clip_grad_norm ~max_norm opt)
        | None -> ());
        opt.Optim.step ();
        Some v
    | exception Autodiff.Non_finite _ ->
        faults.Faults.nan_quarantined <- faults.Faults.nan_quarantined + 1;
        opt.Optim.zero_grad ();
        None
  end

(* ---- training skeletons ------------------------------------------------------------ *)

(* Shared driver for both skeletons: [units] is the array of training units
   (samples or minibatches), [loss_of_unit u] runs the forward pass(es) and
   returns the summed loss plus the number of underlying examples.  One
   optimizer step per unit; checkpoints count units. *)
let train_loop ~(config : config) ?checkpoint ~(rngs : Scallop_utils.Rng.t list)
    ~(faults : Faults.t) ~(opt : Optim.t) ~(n_examples : int)
    ~(units : 'u array) ~(loss_of_unit : 'u -> Autodiff.t) () : float list * float list =
  let n_units = Array.length units in
  let losses = ref [] (* reversed: head = most recent epoch *) in
  let times = ref [] in
  let total = ref 0.0 in
  let done_steps = ref 0 in
  (match checkpoint with
  | None -> ()
  | Some ck -> (
      match try_resume ~ck ~opt ~rngs with
      | Some (steps, ls, tot) ->
          done_steps := steps;
          losses := ls;
          total := tot
      | None -> ()));
  let maybe_save () =
    match checkpoint with
    | Some ck when !done_steps mod ck.every_n_steps = 0 ->
        ignore
          (Scallop_utils.Atomic_io.save ~dir:ck.dir ~keep:ck.keep
             (checkpoint_payload ~done_steps:!done_steps ~losses:!losses ~total:!total ~opt
                ~rngs))
    | _ -> ()
  in
  for epoch = 1 to config.epochs do
    let epoch_start = (epoch - 1) * n_units in
    if epoch * n_units > !done_steps && n_units > 0 then begin
      let t0 = Scallop_utils.Monotonic.now () in
      if epoch_start >= !done_steps then total := 0.0;
      for i = 0 to n_units - 1 do
        let gstep = epoch_start + i in
        if gstep >= !done_steps then begin
          let loss = loss_of_unit units.(i) in
          (match guarded_step ~config ~opt ~faults loss with
          | Some v -> total := !total +. v
          | None -> ());
          done_steps := gstep + 1;
          if i = n_units - 1 then begin
            (* epoch complete: fold the accumulator into the loss curve
               before any snapshot, so a checkpoint taken at an epoch
               boundary restores a consistent (losses, total) pair *)
            losses := (!total /. float_of_int (max 1 n_examples)) :: !losses;
            total := 0.0
          end;
          maybe_save ()
        end
      done;
      times := Scallop_utils.Monotonic.elapsed_since t0 :: !times
    end
  done;
  (List.rev !losses, !times)

(** Minibatched train/eval skeleton for the parallel runtime: [train_batch]
    returns one scalar loss per sample of the minibatch (typically computed
    with {!Scallop_nn.Scallop_layer.forward_batch} over a worker pool); the
    losses are summed into a single backward pass and one optimizer step per
    minibatch.  [eval_batch] returns per-sample correctness.

    With [?checkpoint], training state is snapshotted every
    [checkpoint.every_n_steps] optimizer steps and the run resumes from the
    newest valid snapshot; [?rngs] lists any generator streams the
    [train_batch] closure draws from, so they are saved and restored too.
    Non-finite losses/gradients are quarantined (skipped + counted in the
    report's [faults]) rather than applied. *)
let run_task_batched ?checkpoint ?(rngs : Scallop_utils.Rng.t list = [])
    ?(faults = Faults.create ()) ~task ~(config : config) ~(batch_size : int)
    ~(train_data : 'a list) ~(test_data : 'a list) ~(opt : Optim.t)
    ~(train_batch : 'a array -> Autodiff.t array)
    ~(eval_batch : 'a array -> bool array) () : report =
  let train_chunks = Array.of_list (chunks_of batch_size train_data) in
  let losses, times =
    train_loop ~config ?checkpoint ~rngs ~faults ~opt
      ~n_examples:(List.length train_data)
      ~units:train_chunks
      ~loss_of_unit:(fun chunk -> sum_losses (Array.to_list (train_batch chunk)))
      ()
  in
  let correct = ref 0 in
  List.iter
    (fun chunk -> Array.iter (fun ok -> if ok then incr correct) (eval_batch chunk))
    (chunks_of batch_size test_data);
  {
    task;
    provenance = provenance_name config.provenance;
    accuracy = float_of_int !correct /. float_of_int (max 1 (List.length test_data));
    epoch_time = Scallop_utils.Listx.average times;
    losses;
    faults;
  }

(** Sample-at-a-time train/eval skeleton: {!run_task_batched} with
    [batch_size = 1].  [train_step] returns the sample loss; [eval_sample]
    returns whether the prediction was correct. *)
let run_task ?checkpoint ?rngs ?faults ~task ~config ~train_data ~test_data ~opt
    ~(train_step : 'a -> Autodiff.t) ~(eval_sample : 'a -> bool) () : report =
  run_task_batched ?checkpoint ?rngs ?faults ~task ~config ~batch_size:1 ~train_data ~test_data
    ~opt ~train_batch:(Array.map train_step) ~eval_batch:(Array.map eval_sample) ()
