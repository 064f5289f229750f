(** [train-sum3]: MNIST-R sum3 trained through the differentiable Scallop
    layer ([difftopkproofsme-3]), the path of the paper's Table 4.

    The measured pass runs in a child process that calls the public entry
    point [Mnist_r.train_and_eval_batched] back to back — one epoch per
    call, a fresh data/model seed per call — until the run's time is used
    up.  Each call's wall time minus its timed epoch is one set-up sample
    (data, model and program compile, test pass). *)

open Scallop_core
open Scallop_tensor
open Scallop_nn
module Apps = Scallop_apps
module Mnist = Scallop_data.Mnist

let now = Client.now
let spec = Registry.Diff_top_k_proofs_me 3
let batch_size = 16
let batches n_train = (n_train + batch_size - 1) / batch_size

let config ~seed ~n_train ~n_test i =
  {
    Apps.Common.default_config with
    Apps.Common.seed = (seed * 1000) + i;
    provenance = spec;
    epochs = 1;
    n_train;
    n_test;
  }

(** The child process body: prints [call <i> <wall s> <epoch s> <accuracy>
    <faults>] per call, then [rss <kB>]. *)
let child ~seed ~seconds ~n_train ~n_test =
  let t_start = now () in
  let rec go i walls =
    let t0 = now () in
    let r =
      Apps.Mnist_r.train_and_eval_batched ~batch_size ~jobs:1 (config ~seed ~n_train ~n_test i)
        Mnist.Sum3
    in
    let wall = now () -. t0 in
    Printf.printf "call %d %.9f %.9f %.6f %d\n%!" i wall r.Apps.Common.epoch_time
      r.Apps.Common.accuracy
      (Scallop_utils.Faults.total r.Apps.Common.faults);
    let walls = wall :: walls in
    if now () -. t_start +. Summary.mean walls <= seconds then go (i + 1) walls
  in
  go 0 [];
  Printf.printf "rss %d\n%!" (Client.vm_hwm_kb (Unix.getpid ()))

type call = { wall : float; epoch : float; accuracy : float; faults : int }
type pass = { calls : call list; rss_kb : int }

let pass ~self ~exe ~work ~seed ~seconds ~smoke : pass =
  let args =
    [
      "--child"; "train"; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
      "--scallop"; exe;
    ]
    @ if smoke then [ "--smoke" ] else []
  in
  let p = Client.spawn ~exe:self ~args ~log:(Filename.concat work "train.log") in
  close_out p.Client.oc;
  let calls = ref [] and rss = ref 0 in
  (try
     while true do
       let l = input_line p.Client.ic in
       match String.split_on_char ' ' l with
       | [ "call"; _; w; e; a; f ] ->
           calls :=
             {
               wall = float_of_string w;
               epoch = float_of_string e;
               accuracy = float_of_string a;
               faults = int_of_string f;
             }
             :: !calls
       | [ "rss"; kb ] -> rss := int_of_string kb
       | _ -> ()
     done
   with End_of_file -> ());
  Client.finish p;
  if !calls = [] || !rss = 0 then raise (Client.Died "training child produced no result");
  { calls = List.rev !calls; rss_kb = !rss }

(** Replay of call 0's epoch with [Mnist_r.forward_batch] decomposed:
    [Layers.Mlp.classify], [Scallop_layer.forward_batch], loss + backward,
    optimizer step — each a child span of one [train.step] root.  Returns
    per-step latencies and the number of failed steps. *)
let replay ~tr ~seed ~n_train : float list * int * float =
  let cfg = config ~seed ~n_train ~n_test:0 0 in
  let rng = Scallop_utils.Rng.create cfg.Apps.Common.seed in
  let data = Mnist.create ~noise:0.5 ~dim:16 ~seed:(cfg.Apps.Common.seed + 1) () in
  let m = Apps.Mnist_r.create_model ~rng ~dim:16 Mnist.Sum3 in
  let opt = Optim.adam ~lr:cfg.Apps.Common.lr (Layers.Mlp.params m.Apps.Mnist_r.mlp) in
  let train = Mnist.dataset data Mnist.Sum3 n_train in
  let traced = tr.Trace.enabled in
  let lat = ref [] and failed = ref 0 and words = ref 0.0 in
  List.iter
    (fun (chunk : Mnist.sample array) ->
      let rid = Trace.fresh_id tr in
      let t0 = now () in
      let w0 = if traced then Gc.minor_words () else 0.0 in
      let span name a f =
        let v = f () in
        let b = if traced then now () else 0.0 in
        Trace.child tr ~req:rid name a b;
        (v, b)
      in
      (try
         let (samples, out_pred, candidates), t1 =
           span "nn.classify" t0 (fun () ->
               let mapped =
                 Array.map
                   (fun (s : Mnist.sample) ->
                     Apps.Mnist_r.interface Mnist.Sum3
                       (List.map
                          (fun img -> Layers.Mlp.classify m.Apps.Mnist_r.mlp (Autodiff.const img))
                          s.Mnist.images))
                   chunk
               in
               let _, out_pred, candidates = mapped.(0) in
               let sample (inputs, _, _) = { Scallop_layer.inputs; static_facts = [] } in
               (Array.map sample mapped, out_pred, candidates))
         in
         let ys, t2 =
           span "layer.forward" t1 (fun () ->
               Scallop_layer.forward_batch ~jobs:1 ~spec ~compiled:m.Apps.Mnist_r.compiled ~out_pred
                 ~candidates samples)
         in
         let (), t3 =
           span "autodiff.backward" t2 (fun () ->
               let n = Array.length candidates in
               let loss =
                 Apps.Common.sum_losses
                   (Array.to_list
                      (Array.map2
                         (fun y (s : Mnist.sample) ->
                           let target = Apps.Common.one_hot n s.Mnist.target in
                           Apps.Common.bce y (Autodiff.const target))
                         ys chunk))
               in
               opt.Optim.zero_grad ();
               Autodiff.backward_guarded loss)
         in
         ignore (span "optim.step" t3 opt.Optim.step)
       with Session.Error _ | Autodiff.Non_finite _ ->
         opt.Optim.zero_grad ();
         incr failed);
      let t_end = now () in
      if traced then words := !words +. (Gc.minor_words () -. w0);
      Trace.add tr ~id:rid ~name:"train.step" ~parent:(-1) ~req:rid t0 t_end;
      lat := (t_end -. t0) :: !lat)
    (Apps.Common.chunks_of batch_size train);
  (!lat, !failed, !words)
