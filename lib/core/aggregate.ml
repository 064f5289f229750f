(** Aggregation under tagged semantics (paper Sec. 4.3, "Aggregation").

    Semantically, aggregating n tagged tuples considers all 2ⁿ worlds: each
    world turns a subset of tuples on, its tag is the conjunction of on-tags
    and negated off-tags, and the aggregator's discrete function is applied
    to the on-set; a result's tag is the ⊕ of its worlds' tags.  Direct
    enumeration is exponential, so we implement the standard per-aggregator
    polynomial schemes, expressed generically over any provenance:

    - count: dynamic programming over (item, count-so-far), equivalent to
      the world sum for any commutative semiring.  It skips the cells that
      can only stay 0, so it costs O(n) ⊕/⊗ ops over certain tags (every
      boolean relation) and O(n²) in general; the test oracle keeps the
      plain O(n²) DP it is checked against.
    - sum/prod: the same DP keyed by accumulated value; over no items they
      yield 0 and 1.
    - min/max/argmin/argmax: outcome u is tagged t_u ⊗ ∏_{v ≻ u} ⊖t_v
      (Scallop's specialization; exact in absorptive semirings).
    - exists: true ↦ ⊕ᵢ tᵢ, false ↦ ∏ᵢ ⊖tᵢ. (forall is desugared by the
      front-end into a value-negated exists, which is world-exact.)

    [World_exact] implements the literal 2ⁿ enumeration for cross-checking
    the specializations on small inputs (used by the test suite), and
    [mmp_count] is the O(n log n) counting algorithm of Appendix Alg. 1,
    checked by the tests but not wired into [run]: max-min-prob counts
    through the general DP.
    The samplers ([top], [uniform], [categorical]) live here too, so the
    executor and the test oracle draw through one function. *)

exception Unsupported of string

module Make (P : Provenance.S) = struct
  let neg t =
    match P.negate t with
    | Some t' -> t'
    | None -> raise (Unsupported (P.name ^ " does not support negation/aggregation"))

  (* --- count ------------------------------------------------------------ *)

  (** The DP over (item, count-so-far), visiting only the cells that can
      leave [P.zero].  Item [i] updates cell [j] to
      [dp(j) ⊗ ⊖t ⊕ dp(j-1) ⊗ t] ([dp(0) ⊗ ⊖t ⊕ 0] at [j = 0]).  A cell
      whose inputs are physically [P.zero] is skipped when that update,
      evaluated once for the item on [P.zero] inputs, returned [P.zero]
      itself: the cell would stay [P.zero].  Every other cell gets the full
      update, in the descending order of the plain O(n²) DP, so each tag is
      bit-identical to it.  Cells outside [[lo, hi]] hold [P.zero]; for
      certain tags ([P.one] with a zero complement, e.g. every boolean
      relation) that window is one cell wide and the count is O(n). *)
  let count (items : (Tuple.t * P.t) list) : (Tuple.t * P.t) list =
    let n = List.length items in
    let dp = Array.make (n + 1) P.zero in
    dp.(0) <- P.one;
    let lo = ref 0 and hi = ref 0 in
    List.iteri
      (fun i (_, t) ->
        let nt = neg t in
        let inner_stays = P.add (P.mult P.zero nt) (P.mult P.zero t) == P.zero in
        (* cells above [top] and below [bottom] have P.zero inputs; cell 0
           has its own update *)
        let top = if inner_stays then !hi + 1 else i + 1 in
        let bottom =
          if inner_stays && !lo > 0 && P.add (P.mult P.zero nt) P.zero == P.zero then !lo else 0
        in
        lo := n + 1;
        hi := -1;
        for j = top downto bottom do
          let keep = P.mult dp.(j) nt in
          let take = if j > 0 then P.mult dp.(j - 1) t else P.zero in
          let d = P.add keep take in
          dp.(j) <- d;
          if d != P.zero then begin
            if j > !hi then hi := j;
            lo := j
          end
        done)
      items;
    List.filter_map
      (fun j ->
        let t = dp.(j) in
        if P.discard t then None else Some ([| Value.int Value.USize j |], t))
      (Scallop_utils.Listx.range 0 (n + 1))

  (* --- sum / prod --------------------------------------------------------- *)

  let fold_values op ~init ?result_ty (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list =
    (* DP over accumulated value; tuples must be unary numeric. *)
    let module VM = Map.Make (struct
      type t = Value.t

      let compare = Value.compare
    end) in
    let value_of (tu : Tuple.t) =
      if Tuple.arity tu <> 1 then
        raise (Unsupported "sum/prod aggregate over non-unary binding tuple")
      else Tuple.get tu 0
    in
    let init_value =
      match items with
      | [] -> None
      | (tu, _) :: _ -> (
          let ty = Value.type_of (value_of tu) in
          match init ty with Some v -> Some v | None -> None)
    in
    match init_value with
    | None ->
        (* Empty input (an empty body without a group, or an empty
           [where] group): the neutral value with tag 1, at the result
           column's type (i32 when the caller does not know it). *)
        let neutral =
          match Option.bind result_ty init with Some v -> v | None -> Option.get (init Value.I32)
        in
        [ ([| neutral |], P.one) ]
    | Some init_v ->
        let states = ref (VM.singleton init_v P.one) in
        List.iter
          (fun (tu, t) ->
            let v = value_of tu in
            let nt = neg t in
            let next = ref VM.empty in
            let add_state value tag =
              if not (P.discard tag) then
                next :=
                  VM.update value
                    (fun cur ->
                      Some (match cur with None -> tag | Some c -> P.add c tag))
                    !next
            in
            VM.iter
              (fun acc tag ->
                add_state acc (P.mult tag nt);
                match op acc v with
                | Some acc' -> add_state acc' (P.mult tag t)
                | None -> ())
              !states;
            states := !next)
          items;
        VM.fold (fun v tag acc -> ([| v |], tag) :: acc) !states [] |> List.rev

  let sum ?result_ty items =
    fold_values (Foreign.eval_binop Foreign.Add) ?result_ty
      ~init:(fun ty ->
        if Value.is_integer_ty ty then Some (Value.int ty 0)
        else if Value.is_float_ty ty then Some (Value.float ty 0.0)
        else None)
      items

  let prod ?result_ty items =
    fold_values (Foreign.eval_binop Foreign.Mul) ?result_ty
      ~init:(fun ty ->
        if Value.is_integer_ty ty then Some (Value.int ty 1)
        else if Value.is_float_ty ty then Some (Value.float ty 1.0)
        else None)
      items

  (* --- min / max / argmin / argmax ---------------------------------------- *)

  (** [extremum ~largest ~arg_len items]: items are (arg ++ value) tuples;
      outcome tuples keep the arg prefix when [arg_len > 0] (argmin/argmax)
      or the value part (min/max).  Ties share the extremum. *)
  let extremum ~largest ~arg_len (items : (Tuple.t * P.t) list) : (Tuple.t * P.t) list =
    let value_part tu = Array.sub tu arg_len (Array.length tu - arg_len) in
    let cmp (a, _) (b, _) =
      let c = Tuple.compare (value_part a) (value_part b) in
      if largest then -c else c
    in
    let sorted = List.stable_sort cmp items in
    (* Walking from best to worst: outcome tag = own tag ⊗ ∏(⊖ strictly-better tags). *)
    let results = ref [] in
    let better_acc = ref P.one in
    let rec go = function
      | [] -> ()
      | (tu, t) :: rest ->
          (* collect the maximal block of equal values *)
          let v = value_part tu in
          let block, rest' =
            let rec split acc = function
              | (tu', t') :: r when Tuple.compare (value_part tu') v = 0 ->
                  split ((tu', t') :: acc) r
              | r -> (List.rev acc, r)
            in
            split [ (tu, t) ] rest
          in
          List.iter
            (fun (tu', t') ->
              let out = if arg_len > 0 then Array.sub tu' 0 arg_len else v in
              let tag = P.mult t' !better_acc in
              if not (P.discard tag) then results := (out, tag) :: !results)
            block;
          List.iter (fun (_, t') -> better_acc := P.mult !better_acc (neg t')) block;
          go rest'
    in
    go sorted;
    List.rev !results

  (* --- exists -------------------------------------------------------------- *)

  let exists (items : (Tuple.t * P.t) list) : (Tuple.t * P.t) list =
    let t_true = List.fold_left (fun acc (_, t) -> P.add acc t) P.zero items in
    let t_false = List.fold_left (fun acc (_, t) -> P.mult acc (neg t)) P.one items in
    List.filter
      (fun (_, t) -> not (P.discard t))
      [ ([| Value.bool true |], t_true); ([| Value.bool false |], t_false) ]

  (* --- dispatch ------------------------------------------------------------ *)

  (** [result_ty] is the result column's type, which an empty [sum] or
      [prod] needs for its neutral value (i32 when absent). *)
  let run (agg : Ram.aggregator) ~arg_len ?result_ty (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list =
    match agg with
    | Ram.Count -> count items
    | Ram.Sum -> sum ?result_ty items
    | Ram.Prod -> prod ?result_ty items
    | Ram.Min -> extremum ~largest:false ~arg_len:0 items
    | Ram.Max -> extremum ~largest:true ~arg_len:0 items
    | Ram.Argmin -> extremum ~largest:false ~arg_len items
    | Ram.Argmax -> extremum ~largest:true ~arg_len items
    | Ram.Exists -> exists items

  (* --- samplers ------------------------------------------------------------- *)

  (** [sample rng sampler items] picks [min k |items|] of [items], drawing
      only from [rng], so a fixed seed gives a fixed sample.  [Uniform] and
      [Categorical] return their picks in input order; [Top_k] returns them
      by descending weight, ties in input order (a stable sort on
      [P.weight]).  The order is observable: a projection that merges two
      picks ⊕-folds them in it.  The executor and the test oracle both call
      this on one normalized group, whose items are sorted by tuple. *)
  let sample rng (sampler : Ram.sampler) (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list =
    match sampler with
    | Ram.Top_k k -> Scallop_utils.Listx.top_k_by (fun (_, t) -> P.weight t) k items
    | Ram.Categorical k ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        if k >= n then items
        else
          let weights = Array.map (fun (_, t) -> P.weight t) arr in
          Scallop_utils.Rng.weighted_sample_indices rng k weights
          |> Array.map (fun i -> arr.(i))
          |> Array.to_list
    | Ram.Uniform k ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        if k >= n then items
        else
          Scallop_utils.Rng.sample_indices rng k n |> Array.map (fun i -> arr.(i)) |> Array.to_list

  (* --- exact world enumeration (reference implementation) ------------------ *)

  (** The literal semantics of Fig. 7 (Aggregate): enumerate all 2ⁿ worlds.
      Only usable for small n; the test suite checks [run] against this. *)
  let world_exact (agg : Ram.aggregator) ~arg_len (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list =
    let n = List.length items in
    if n > 16 then raise (Unsupported "world_exact: too many tuples");
    let arr = Array.of_list items in
    let discrete (on : (Tuple.t * P.t) list) : Tuple.t list =
      let tuples = List.map fst on in
      match agg with
      | Ram.Count -> [ [| Value.int Value.USize (List.length tuples) |] ]
      | Ram.Sum -> (
          match tuples with
          | [] -> [ [| Value.int Value.I32 0 |] ]
          | (first :: _) as ts ->
              let ty = Value.type_of (Tuple.get first 0) in
              let zero =
                if Value.is_float_ty ty then Value.float ty 0.0 else Value.int ty 0
              in
              let total =
                List.fold_left
                  (fun acc t ->
                    match Foreign.eval_binop Foreign.Add acc (Tuple.get t 0) with
                    | Some v -> v
                    | None -> acc)
                  zero ts
              in
              [ [| total |] ])
      | Ram.Prod -> (
          match tuples with
          | [] -> [ [| Value.int Value.I32 1 |] ]
          | (first :: _) as ts ->
              let ty = Value.type_of (Tuple.get first 0) in
              let one_v =
                if Value.is_float_ty ty then Value.float ty 1.0 else Value.int ty 1
              in
              let total =
                List.fold_left
                  (fun acc t ->
                    match Foreign.eval_binop Foreign.Mul acc (Tuple.get t 0) with
                    | Some v -> v
                    | None -> acc)
                  one_v ts
              in
              [ [| total |] ])
      | Ram.Min | Ram.Max | Ram.Argmin | Ram.Argmax -> (
          let value_part tu = Array.sub tu arg_len (Array.length tu - arg_len) in
          let largest = agg = Ram.Max || agg = Ram.Argmax in
          let keep_arg = agg = Ram.Argmin || agg = Ram.Argmax in
          match tuples with
          | [] -> []
          | ts ->
              let best =
                List.fold_left
                  (fun acc t ->
                    let c = Tuple.compare (value_part t) (value_part acc) in
                    if (largest && c > 0) || ((not largest) && c < 0) then t else acc)
                  (List.hd ts) ts
              in
              let best_v = value_part best in
              ts
              |> List.filter (fun t -> Tuple.compare (value_part t) best_v = 0)
              |> List.map (fun t -> if keep_arg then Array.sub t 0 arg_len else best_v))
      | Ram.Exists -> [ [| Value.bool (tuples <> []) |] ]
    in
    let acc : (Tuple.t, P.t) Hashtbl.t = Hashtbl.create 16 in
    for mask = 0 to (1 lsl n) - 1 do
      let world_tag = ref P.one in
      let on = ref [] in
      for i = n - 1 downto 0 do
        let tu, t = arr.(i) in
        if mask land (1 lsl i) <> 0 then begin
          world_tag := P.mult !world_tag t;
          on := (tu, t) :: !on
        end
        else world_tag := P.mult !world_tag (neg t)
      done;
      if not (P.discard !world_tag) then
        List.iter
          (fun out ->
            match Hashtbl.find_opt acc out with
            | Some t -> Hashtbl.replace acc out (P.add t !world_tag)
            | None -> Hashtbl.replace acc out !world_tag)
          (discrete !on)
    done;
    Hashtbl.fold (fun tu t l -> (tu, t) :: l) acc []
    |> List.filter (fun (_, t) -> not (P.discard t))
    |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)
end

(** Appendix Algorithm 1: O(n log n) counting over max-min-prob tags.
    Returns the tag (probability) of each count outcome 0..n. *)
let mmp_count (tags : float list) : float array =
  let n = List.length tags in
  let t_pos = Array.of_list (List.sort compare tags) in
  (* count = k: the best world turns on the k tuples of largest tag (turning
     on a larger tag in place of a smaller one can only raise the world's
     min); its tag is min(smallest on-tag, smallest off-complement). *)
  Array.init (n + 1) (fun k ->
      let pos_min = if k = 0 then 1.0 else t_pos.(n - k) in
      let neg_min = if k = n then 1.0 else 1.0 -. t_pos.(n - k - 1) in
      Float.min pos_min neg_min)
