(** The differentiable Scallop layer: a logic program as a network module.

    This is the OCaml counterpart of [scallopy]'s [ScallopModule] (paper
    Fig. 2c): input distributions produced by neural networks become
    probabilistic facts, a compiled Scallop program runs under a
    differentiable provenance, and the recovered output probabilities —
    together with the Jacobian ∂y/∂r delivered by the provenance's dual
    numbers — are wrapped back into an autodiff variable, so the surrounding
    training loop backpropagates end-to-end through the logic program. *)

open Scallop_tensor
open Scallop_core

type input_mapping = {
  pred : string;  (** interface relation *)
  entries : (int * Tuple.t) array;
      (** (index into [probs], fact tuple); a subset of the distribution may
          be exposed (e.g. HWF's top-k symbol sampling, Appendix C.2) *)
  probs : Autodiff.t;  (** probability tensor the indices point into *)
  mutually_exclusive : bool;  (** one me-group for the whole mapping *)
}

(** Expose a whole distribution: entry i ↦ tuples.(i). *)
let dense_mapping ~pred ~tuples ~probs ~mutually_exclusive =
  { pred; entries = Array.mapi (fun i t -> (i, t)) tuples; probs; mutually_exclusive }

(** Expose only the [k] most probable entries (paper's HWF sampling).
    Equal probabilities tie-break on the lower index, so the selection is a
    pure function of the distribution — [Array.sort] is not stable, and an
    unstable tie-break would make top-k selection (and everything downstream
    of it) irreproducible across runs and workers. *)
let topk_mapping ~k ~pred ~tuples ~probs ~mutually_exclusive =
  let v = Autodiff.value probs in
  let idx = Array.init (Array.length tuples) Fun.id in
  Array.sort
    (fun a b ->
      let c = compare (Nd.get1 v b) (Nd.get1 v a) in
      if c <> 0 then c else compare a b)
    idx;
  let keep = Array.sub idx 0 (min k (Array.length idx)) in
  { pred; entries = Array.map (fun i -> (i, tuples.(i))) keep; probs; mutually_exclusive }

(** Facts with no attached network output (structured inputs, the starred
    rows of paper Table 2). *)
type static_fact = string * Tuple.t

type run_output = {
  y : Autodiff.t;  (** [1 × n] output probabilities *)
  tuples : Tuple.t array;  (** tuple of each output column *)
}

(* ---- the three phases of a layer execution -----------------------------------

   [prepare_sample] (cheap, main thread): turn input mappings into tagged
   facts and remember which (mapping, entry) slot produced each fact.
   [Session.run_batch] (heavy, parallelizable): pure symbolic execution
   returning plain data.
   [wire_outputs] (main thread): route each output's ∂y/∂r Jacobian entries
   back to the probs tensors of the sample that produced them, creating the
   autodiff nodes.  Keeping graph construction on the caller's domain makes
   node ids deterministic in batch order. *)

type prepared = {
  p_facts : (string * (Provenance.Input.t * Tuple.t) list) list;
  p_slots : (string * Tuple.t, int * int) Hashtbl.t;
      (** coerced fact identity -> (mapping index, index into its probs) *)
}

let prepare_sample ~compiled ~static_facts ~inputs : prepared =
  let facts_by_pred : (string, (Provenance.Input.t * Tuple.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let push pred entry =
    match Hashtbl.find_opt facts_by_pred pred with
    | Some l -> l := entry :: !l
    | None -> Hashtbl.replace facts_by_pred pred (ref [ entry ])
  in
  let slot_of_fact : (string * Tuple.t, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun mi m ->
      let me_group = if m.mutually_exclusive then Some mi else None in
      Array.iter
        (fun (i, tuple) ->
          let p = Nd.get1 (Autodiff.value m.probs) i in
          let p = Float.min 1.0 (Float.max 0.0 p) in
          let coerced = Session.coerce_tuple compiled m.pred tuple in
          Hashtbl.replace slot_of_fact (m.pred, coerced) (mi, i);
          push m.pred (Provenance.Input.prob ?me_group p, tuple))
        m.entries)
    inputs;
  List.iter (fun (pred, tuple) -> push pred (Provenance.Input.none, tuple)) static_facts;
  {
    p_facts = Hashtbl.fold (fun pred l acc -> (pred, List.rev !l) :: acc) facts_by_pred [];
    p_slots = slot_of_fact;
  }

let wire_outputs ~compiled ~inputs ~(prepared : prepared) ~(result : Session.result)
    ~(outputs : (string * Tuple.t array option) list) : run_output list =
  let slot_of_fact = prepared.p_slots in
  let id_to_slot : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((pred, tuple), id) ->
      match Hashtbl.find_opt slot_of_fact (pred, tuple) with
      | Some slot -> Hashtbl.replace id_to_slot id slot
      | None -> ())
    result.Session.fact_ids;
  List.map
    (fun (out_pred, candidates) ->
      let out_rel = Session.output result out_pred in
      let out_tuples, out_values =
        match candidates with
        | Some cands ->
            ( cands,
              Array.map
                (fun cand ->
                  let cand = Session.coerce_tuple compiled out_pred cand in
                  List.find_opt (fun (t, _) -> Tuple.compare t cand = 0) out_rel)
                cands )
        | None ->
            let arr = Array.of_list out_rel in
            (Array.map fst arr, Array.map (fun x -> Some x) arr)
      in
      let n_out = Array.length out_tuples in
      let y = Nd.zeros [| 1; max 1 n_out |] in
      let jac : (int * int * float) list array = Array.make (max 1 n_out) [] in
      Array.iteri
        (fun j entry ->
          match entry with
          | None -> ()
          | Some (_, o) ->
              Nd.set1 y j (Provenance.Output.prob o);
              jac.(j) <-
                List.filter_map
                  (fun (id, g) ->
                    match Hashtbl.find_opt id_to_slot id with
                    | Some (mi, i) -> Some (mi, i, g)
                    | None -> None)
                  (Provenance.Output.gradient o))
        out_values;
      let parents =
        List.mapi
          (fun mi m ->
            let push (g : Nd.t) : Nd.t =
              let contrib = Nd.zeros (Autodiff.value m.probs).Nd.shape in
              Array.iteri
                (fun j entries ->
                  let gj = Nd.get1 g j in
                  if gj <> 0.0 then
                    List.iter
                      (fun (mi', i, dydr) ->
                        if mi' = mi then
                          contrib.Nd.data.(i) <- contrib.Nd.data.(i) +. (gj *. dydr))
                      entries)
                jac;
              contrib
            in
            { Autodiff.var = m.probs; push })
          inputs
      in
      { y = Autodiff.custom ~op:("scallop:" ^ out_pred) ~value:y ~parents; tuples = out_tuples })
    outputs

(* ---- execution ------------------------------------------------------------------

   One compiled plan, many samples: preparation and Jacobian wiring stay on
   the calling domain (they build autodiff graph nodes), while the symbolic
   executions — the dominant cost — fan out across the pool via
   {!Session.run_batch}, each with a fresh provenance instance and private
   interpreter state.  Results are positional: sample [i]'s outputs wire
   back to sample [i]'s probs tensors, so gradients land on the right rows
   of the batch regardless of which worker ran which sample.  The
   per-sample entry points at the end of this file run a one-sample
   batch. *)

(** One element of a batched forward. *)
type sample = { inputs : input_mapping list; static_facts : static_fact list }

(** Budget-aware batched forward: sample [i]'s slot is [Ok] with its wired
    outputs, or [Error diag] when that sample was stopped by the budget in
    [config.Interp.budget] (deadline, iteration/tuple/node caps,
    cancellation) or failed on its own inputs.  Skipped samples cost no
    autodiff nodes; surviving samples are wired exactly as in
    {!forward_batch}, so a training loop can drop (or down-weight) the
    skipped examples and still backpropagate through the rest of the
    batch.  This is the one place the layer runs a program. *)
let try_run_multi_batch ?pool ?jobs ?(config = Interp.default_config ()) ~spec ~compiled
    ~(outputs : (string * Tuple.t array option) list) (samples : sample array) :
    (run_output list, Exec_error.t) result array =
  let prepared =
    Array.map
      (fun s -> prepare_sample ~compiled ~static_facts:s.static_facts ~inputs:s.inputs)
      samples
  in
  let results =
    Session.run_batch ?pool ?jobs ~config
      ~provenance_of:(fun _ -> Registry.create spec)
      compiled
      ~outputs:(List.map fst outputs)
      (Array.map (fun p -> p.p_facts) prepared)
  in
  Array.mapi
    (fun i outcome ->
      Result.map
        (fun result ->
          wire_outputs ~compiled ~inputs:samples.(i).inputs ~prepared:prepared.(i) ~result
            ~outputs)
        outcome)
    results

(* ---- resilient execution -------------------------------------------------------

   Numeric quarantine + graceful degradation on top of {!try_run_multi_batch}:

   - any sample whose recovered output probabilities contain a NaN/Inf
     (poisoned perception input, pathological provenance arithmetic) is
     turned into [Error (Non_finite _)] before it can enter the autodiff
     graph;
   - samples stopped by their budget are retried down the
     {!Registry.degrade} ladder (e.g. top-k-proofs k → k/2 → … →
     min-max-prob): the retry re-runs only the failed samples, under the
     same per-attempt budget, and splices successes back into position;
   - whatever still fails after the last rung stays [Error] — the caller
     skips it — and every rescue/skip is counted in a
     {!Scallop_utils.Faults} record.

   Retries preserve batch determinism: outcomes depend only on the inputs
   and the ladder, never on worker count or scheduling (failed samples are
   re-run with the same batch-relative RNG substreams). *)

(** True when every output row of a sample is finite. *)
let outputs_finite (outs : run_output list) =
  List.for_all (fun (o : run_output) -> Nd.is_finite (Autodiff.value o.y)) outs

let quarantine_non_finite ?(faults : Scallop_utils.Faults.t option) results =
  Array.map
    (function
      | Ok outs when not (outputs_finite outs) ->
          (match faults with
          | Some f -> f.Scallop_utils.Faults.nan_quarantined <- f.Scallop_utils.Faults.nan_quarantined + 1
          | None -> ());
          Error (Exec_error.Non_finite { what = "scallop layer output probabilities" })
      | outcome -> outcome)
    results

(** Budget-aware batched forward with quarantine and degradation (see
    above).  [max_degrade] caps the number of ladder rungs tried after the
    initial spec (default: the whole ladder).  Samples that fail for
    non-quarantine reasons (bad input, cancellation, …) are returned as-is
    and never retried. *)
let resilient_run_multi_batch ?pool ?jobs ?config ?(max_degrade = max_int)
    ?(faults : Scallop_utils.Faults.t option) ~spec ~compiled
    ~(outputs : (string * Tuple.t array option) list) (samples : sample array) :
    (run_output list, Exec_error.t) result array =
  let results =
    quarantine_non_finite ?faults
      (try_run_multi_batch ?pool ?jobs ?config ~spec ~compiled ~outputs samples)
  in
  (* Degradation triggers on [Exec_error.is_degradable] — the same class
     the serving circuit breaker degrades on — so training and serving
     rescue exactly the same failures. *)
  let budget_failed res =
    let idx = ref [] in
    Array.iteri
      (fun i outcome ->
        match outcome with
        | Error e when Exec_error.is_degradable e -> idx := i :: !idx
        | _ -> ())
      res;
    List.rev !idx
  in
  let rec retry spec rungs_left results =
    match budget_failed results with
    | [] -> results
    | failed -> (
        match (Registry.degrade spec, rungs_left > 0) with
        | None, _ | _, false ->
            (match faults with
            | Some f ->
                f.Scallop_utils.Faults.budget_skipped <-
                  f.Scallop_utils.Faults.budget_skipped + List.length failed
            | None -> ());
            results
        | Some spec', true ->
            let sub = Array.of_list (List.map (fun i -> samples.(i)) failed) in
            let sub_results =
              quarantine_non_finite ?faults
                (try_run_multi_batch ?pool ?jobs ?config ~spec:spec' ~compiled ~outputs sub)
            in
            List.iteri
              (fun j i ->
                match sub_results.(j) with
                | Ok _ as ok ->
                    (match faults with
                    | Some f ->
                        f.Scallop_utils.Faults.degraded <- f.Scallop_utils.Faults.degraded + 1
                    | None -> ());
                    results.(i) <- ok
                | Error _ as e -> results.(i) <- e)
              failed;
            retry spec' (rungs_left - 1) results)
  in
  retry spec max_degrade results

(** Resilient {!forward_batch}: one candidate-domain output per sample, with
    NaN quarantine and budget degradation. *)
let resilient_forward_batch ?pool ?jobs ?config ?max_degrade ?faults ~(spec : Registry.spec)
    ~(compiled : Session.compiled) ~(out_pred : string) ~(candidates : Tuple.t array)
    (samples : sample array) : (Autodiff.t, Exec_error.t) result array =
  resilient_run_multi_batch ?pool ?jobs ?config ?max_degrade ?faults ~spec ~compiled
    ~outputs:[ (out_pred, Some candidates) ]
    samples
  |> Array.map
       (Result.map (function [ (out : run_output) ] -> out.y | _ -> assert false))

(** Budget-aware {!forward_batch}: sample [i]'s slot is its probability
    vector, or the diagnostic that stopped it ("example skipped"). *)
let try_forward_batch ?pool ?jobs ?config ~(spec : Registry.spec)
    ~(compiled : Session.compiled) ~(out_pred : string) ~(candidates : Tuple.t array)
    (samples : sample array) : (Autodiff.t, Exec_error.t) result array =
  try_run_multi_batch ?pool ?jobs ?config ~spec ~compiled
    ~outputs:[ (out_pred, Some candidates) ]
    samples
  |> Array.map
       (Result.map (function [ (out : run_output) ] -> out.y | _ -> assert false))

(** Batched {!forward}: one output relation with a shared candidate domain;
    row [i] of the result is sample [i]'s probability vector.  The first
    failed sample raises its diagnostic as [Session.Error]. *)
let forward_batch ?pool ?jobs ?config ~(spec : Registry.spec)
    ~(compiled : Session.compiled) ~(out_pred : string) ~(candidates : Tuple.t array)
    (samples : sample array) : Autodiff.t array =
  try_forward_batch ?pool ?jobs ?config ~spec ~compiled ~out_pred ~candidates samples
  |> Array.map (function Ok y -> y | Error e -> raise (Session.Error e))

(* ---- one sample ------------------------------------------------------------------ *)

(** Run [s] as a one-sample batch and raise its diagnostic as
    [Session.Error], as [Session.run] does.  Like sample 0 of any batch, a
    sampler in the program draws from [Rng.substream config.rng 0]. *)
let run_sample ?config ~spec ~compiled ~outputs (s : sample) : run_output list =
  match try_run_multi_batch ?config ~spec ~compiled ~outputs [| s |] with
  | [| Ok outs |] -> outs
  | [| Error e |] -> raise (Session.Error e)
  | _ -> assert false

(** Run with a fixed output candidate domain: the result row gives the
    probability of each candidate (0 when underived).  Runs as a one-sample
    batch ({!run_sample}). *)
let forward ?config ~(spec : Registry.spec)
    ~(compiled : Session.compiled) ?(static_facts : static_fact list = [])
    ~(inputs : input_mapping list) ~(out_pred : string) ~(candidates : Tuple.t array) () :
    Autodiff.t =
  match
    run_sample ?config ~spec ~compiled ~outputs:[ (out_pred, Some candidates) ]
      { inputs; static_facts }
  with
  | [ out ] -> out.y
  | _ -> assert false

(** Run with an open output domain: all derived tuples become candidates
    (used when the output space is unbounded, e.g. HWF's rational results).
    Runs as a one-sample batch ({!run_sample}). *)
let forward_open ?config ~(spec : Registry.spec)
    ~(compiled : Session.compiled) ?(static_facts : static_fact list = [])
    ~(inputs : input_mapping list) ~(out_pred : string) () : run_output =
  match
    run_sample ?config ~spec ~compiled ~outputs:[ (out_pred, None) ] { inputs; static_facts }
  with
  | [ out ] -> out
  | _ -> assert false

(** Run once and read several output relations (e.g. PacMan's [next_action]
    and [violation]), amortizing the program execution.  Runs as a
    one-sample batch ({!run_sample}). *)
let forward_multi ?config ~(spec : Registry.spec)
    ~(compiled : Session.compiled) ?(static_facts : static_fact list = [])
    ~(inputs : input_mapping list) ~(outputs : (string * Tuple.t array) list) () :
    Autodiff.t list =
  run_sample ?config ~spec ~compiled
    ~outputs:(List.map (fun (p, c) -> (p, Some c)) outputs)
    { inputs; static_facts }
  |> List.map (fun o -> o.y)
