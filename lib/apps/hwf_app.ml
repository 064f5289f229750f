(** HWF: hand-written formula parsing and evaluation (paper Sec. 6.1,
    Appendix C.2).

    A 14-way symbol classifier feeds a Scallop program that parses the
    probabilistic symbol sequence with a context-free grammar and evaluates
    the arithmetic (Fig. 26).  The output domain is the rationals, so the
    layer runs with an open candidate set; following the paper we keep only
    the [sample_k] most likely classes per symbol to prune the parse space. *)

open Scallop_tensor
open Scallop_nn
open Scallop_core
module Hwf = Scallop_data.Hwf

type model = { mlp : Layers.Mlp.t; compiled : Session.compiled }

let create_model ~rng ~dim =
  { mlp = Layers.Mlp.create rng [ dim; 64; Hwf.num_symbols ]; compiled = Session.compile Programs.hwf }

let symbol_tuples_at idx =
  Array.map (fun s -> Tuple.of_list [ Value.int Value.USize idx; Value.string s ]) Hwf.symbols

(** Forward one formula: returns the derived (value, probability) pairs as
    an open-domain output. *)
let forward ?(spec = Registry.Diff_top_k_proofs_me 3) ?(sample_k = 7) (m : model)
    (s : Hwf.sample) : Scallop_layer.run_output =
  let inputs =
    List.mapi
      (fun i img ->
        let probs = Layers.Mlp.classify m.mlp (Autodiff.const img) in
        Scallop_layer.topk_mapping ~k:sample_k ~pred:"symbol" ~tuples:(symbol_tuples_at i)
          ~probs ~mutually_exclusive:true)
      s.Hwf.images
  in
  let static_facts =
    [ ("length", Tuple.of_list [ Value.int Value.USize (List.length s.Hwf.images) ]) ]
  in
  Scallop_layer.forward_open ~spec ~compiled:m.compiled ~static_facts ~inputs ~out_pred:"result" ()

(** Decode a result tuple's numeric value.  [None] for a malformed
    (non-float) tuple: callers must treat that as a {e counted} per-example
    failure — mapping it to [nan] (the historical behavior) let the bad
    value propagate silently into losses and accuracy. *)
let value_of_tuple (t : Tuple.t) : float option = Value.to_float (Tuple.get t 0)

let close a b = Float.abs (a -. b) < 1e-3

(* Decode every candidate value of an output, or quarantine the example:
   one malformed tuple poisons the whole target row, so it is counted once
   (in [faults.malformed]) and the example is skipped. *)
let decode_values ?faults (out : Scallop_layer.run_output) : float array option =
  let vals = Array.map value_of_tuple out.Scallop_layer.tuples in
  if Array.length vals > 0 && Array.for_all Option.is_some vals then
    Some (Array.map Option.get vals)
  else begin
    if Array.exists Option.is_none vals then
      Option.iter
        (fun (f : Scallop_utils.Faults.t) ->
          f.Scallop_utils.Faults.malformed <- f.Scallop_utils.Faults.malformed + 1)
        faults;
    None
  end

let predict ?spec ?sample_k m s =
  let out = forward ?spec ?sample_k m s in
  let y = Autodiff.value out.Scallop_layer.y in
  match decode_values out with
  | None -> None
  | Some vals ->
      let best = ref 0 in
      Array.iteri (fun j _ -> if Nd.get1 y j > Nd.get1 y !best then best := j) vals;
      Some vals.(!best)

(* Loss of one decoded example: BCE of the output distribution against the
   candidates that evaluate close to the ground truth. *)
let loss_of_decoded (out : Scallop_layer.run_output) (vals : float array) (s : Hwf.sample) =
  let n = Array.length vals in
  let target = Nd.init [| 1; n |] (fun j -> if close vals.(j) s.Hwf.value then 1.0 else 0.0) in
  Common.bce out.Scallop_layer.y (Autodiff.const target)

let train_and_eval ?(dim = 16) ?(noise = 0.35) ?(max_len = 7) ?checkpoint
    (config : Common.config) : Common.report =
  let rng = Scallop_utils.Rng.create config.Common.seed in
  let data = Hwf.create ~noise ~dim ~seed:(config.Common.seed + 1) () in
  let m = create_model ~rng ~dim in
  let opt = Optim.adam ~lr:config.Common.lr (Layers.Mlp.params m.mlp) in
  let train_data = Hwf.dataset ~max_len data config.Common.n_train in
  let test_data = Hwf.dataset ~max_len data config.Common.n_test in
  let spec = config.Common.provenance in
  let faults = Scallop_utils.Faults.create () in
  Common.run_task ?checkpoint ~faults ~task:"HWF" ~config ~train_data ~test_data ~opt
    ~train_step:(fun (s : Hwf.sample) ->
      let out = forward ~spec m s in
      match decode_values ~faults out with
      | None -> Autodiff.const (Nd.scalar 0.0)
      | Some vals -> loss_of_decoded out vals s)
    ~eval_sample:(fun s ->
      match predict ~spec m s with Some v -> close v s.Hwf.value | None -> false)
    ()
