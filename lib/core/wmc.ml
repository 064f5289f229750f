(** Weighted model counting over DNF proof formulas (paper Sec. 4.5.3).

    The recover function ρ of the top-k-proofs provenances converts a DNF
    formula into an (optionally differentiable) probability.  Two engines:

    - For formulas over {e independent} variables we compile the DNF into an
      ROBDD ({!Scallop_bdd.Bdd}) and run linear-time algebraic model
      counting.  This is exact and mirrors the paper's SDD-based WMC.

    - For formulas mentioning {e mutually exclusive} variables (Appendix
      B.4.4) we use inclusion–exclusion over the proofs with categorical-
      aware conjunction probabilities: within a group, two distinct positive
      literals are contradictory, a positive literal subsumes the group's
      negative literals, and a set of purely negative literals has
      probability max(0, 1 − Σ rᵢ).  Exact up to [max_ie_proofs] proofs;
      beyond that the formula is truncated to its most probable proofs
      (top-k provenances never exceed k ≤ max_ie_proofs in practice).

    Both engines are polymorphic in the weight semiring so the same code
    yields plain floats and dual numbers. *)

type 'a ops = {
  zero : 'a;
  one : 'a;
  add : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  neg : 'a -> 'a; (* additive inverse *)
  complement : 'a -> 'a; (* 1 - x *)
  of_float : float -> 'a;
  max0 : 'a -> 'a; (* clamp below at 0 *)
}

let float_ops : float ops =
  {
    zero = 0.0;
    one = 1.0;
    add = ( +. );
    mul = ( *. );
    neg = (fun x -> -.x);
    complement = (fun x -> 1.0 -. x);
    of_float = Fun.id;
    max0 = Float.max 0.0;
  }

let dual_ops : Dual.t ops =
  {
    zero = Dual.zero;
    one = Dual.one;
    add = Dual.add;
    mul = Dual.mul;
    neg = Dual.neg;
    complement = Dual.complement;
    of_float = Dual.const;
    max0 = (fun d -> if Dual.value d < 0.0 then Dual.const 0.0 else d);
  }

let max_ie_proofs = 16

(* ---- BDD engine (independent variables) -------------------------------- *)

let wmc_of_root (type a) (ops : a ops) ~(weight_of : int -> a) ~vars root : a =
  Scallop_bdd.Bdd.wmc ~zero:ops.zero ~one:ops.one ~add:ops.add ~mul:ops.mul
    ~w_pos:weight_of
    ~w_neg:(fun v -> ops.complement (weight_of v))
    ~vars root

(* Fresh-manager compilation: used when the cross-iteration cache is
   disabled. *)
let wmc_bdd (type a) (ops : a ops) ~(weight_of : int -> a) (formula : Formula.t) : a =
  let m = Scallop_bdd.Bdd.manager () in
  let dnf =
    List.map (fun proof -> Formula.proof_literals proof) formula
  in
  let root = Scallop_bdd.Bdd.of_dnf m dnf in
  let vars = Formula.variables formula in
  wmc_of_root ops ~weight_of ~vars root

(* ---- cross-iteration WMC cache ------------------------------------------ *)

(* Recover (ρ) dominates topkproofs runtime: every output tuple used to pay
   for a fresh BDD manager and a from-scratch DNF compilation, even though
   fixpoint iterations and successive training steps keep asking about the
   same (or heavily overlapping) formulas.  The cache below is domain-local
   (one per worker domain, so parallel batches stay race-free and
   bit-identical) and has two levels:

   - a {e structural} level: one shared hash-consed manager per domain plus
     a table from canonical formula identity to its compiled BDD root — the
     manager hash-conses across formulas, so overlapping proofs share
     subgraphs and compilation cost survives fixpoint iterations and
     training steps alike;

   - a {e result} level keyed by (structure, per-variable weights): the
     weights enter the key, so a training step that moves any input
     probability misses and recomputes — this is the invalidation rule, and
     it is what makes caching dual-number WMC sound (gradients depend on the
     variable values, not just the formula shape).

   Only the independent-variable BDD engine is cached; the
   inclusion–exclusion path for mutual-exclusion formulas is comparatively
   cheap and stays uncached.  ROBDDs are canonical given the variable order,
   so a cached compilation is node-for-node the diagram a fresh manager
   would build: cached and uncached results are bit-identical. *)

module FKey = struct
  (* Canonical structural identity: the proofs' literal arrays, sorted.
     Independent of proof insertion order. *)
  type t = int array array

  let of_formula (f : Formula.t) : t =
    let k = Array.of_list (List.map (fun (p : Formula.proof) -> p.Formula.lits) f) in
    Array.sort Formula.compare_lits k;
    k

  let equal (a : t) (b : t) =
    Array.length a = Array.length b && Array.for_all2 (fun x y -> Formula.compare_lits x y = 0) a b

  (* Fold over the whole structure: formulas from one fixpoint often share
     long literal prefixes (e.g. every path(0, j) along a chain), so a
     prefix-limited polymorphic hash would put them all in one bucket. *)
  let hash (k : t) =
    Array.fold_left
      (fun h lits -> Array.fold_left (fun h l -> (h * 131) + l) ((h * 17) + 3) lits)
      0 k
    land max_int
end

module FTbl = Hashtbl.Make (FKey)

(* Results are keyed by the compiled BDD's root node id — unique per
   structure within one manager generation, O(1) to compare — plus the
   per-variable weight vector. *)
module RKey = struct
  type t = int * float array

  (* Structural (=) on the weights: NaNs never compare equal, so a NaN
     environment always recomputes. *)
  let equal ((i1, w1) : t) ((i2, w2) : t) = i1 = i2 && w1 = w2

  let hash ((i, w) : t) =
    Array.fold_left
      (fun h x -> (h * 131) lxor Int64.to_int (Int64.bits_of_float x))
      i w
    land max_int
end

module RTbl = Hashtbl.Make (RKey)

type centry = { root : Scallop_bdd.Bdd.t; cvars : int array }

type cache = {
  manager : Scallop_bdd.Bdd.manager;
  bdds : centry FTbl.t;
  probs : float RTbl.t;
  duals : Dual.t RTbl.t;
  mutable bdd_hits : int;
  mutable bdd_misses : int;
  mutable result_hits : int;
  mutable result_misses : int;
  mutable resets : int;
}

(* Caps chosen so a runaway workload resets rather than grows unboundedly:
   a reset costs one recompilation wave, unbounded growth costs the heap. *)
let max_manager_nodes = 2_000_000
let max_result_entries = 65_536

let fresh_cache () =
  {
    manager = Scallop_bdd.Bdd.manager ();
    bdds = FTbl.create 256;
    probs = RTbl.create 256;
    duals = RTbl.create 256;
    bdd_hits = 0;
    bdd_misses = 0;
    result_hits = 0;
    result_misses = 0;
    resets = 0;
  }

let cache_key : cache Domain.DLS.key = Domain.DLS.new_key fresh_cache
let cache () = Domain.DLS.get cache_key

let enabled = Atomic.make true

(** Globally enable/disable the cross-iteration cache; this is the only
    switch (there is no CLI flag).  Disabled, every call
    compiles into a fresh manager — the historic behaviour.  Results are
    identical either way. *)
let set_cache_enabled b = Atomic.set enabled b

let cache_enabled () = Atomic.get enabled

(** Statistics of the calling domain's cache. *)
type cache_stats = {
  bdd_hits : int;
  bdd_misses : int;
  result_hits : int;
  result_misses : int;
  resets : int;
  manager_nodes : int;
}

let cache_stats () : cache_stats =
  let c = cache () in
  {
    bdd_hits = c.bdd_hits;
    bdd_misses = c.bdd_misses;
    result_hits = c.result_hits;
    result_misses = c.result_misses;
    resets = c.resets;
    manager_nodes = Scallop_bdd.Bdd.size c.manager;
  }

(** Drop the calling domain's cached compilations and results (stats and
    reset counters survive). *)
let clear_cache () =
  let c = cache () in
  Scallop_bdd.Bdd.clear c.manager;
  FTbl.reset c.bdds;
  RTbl.reset c.probs;
  RTbl.reset c.duals

let bdd_of_cached c (formula : Formula.t) : centry =
  let key = FKey.of_formula formula in
  match FTbl.find_opt c.bdds key with
  | Some e ->
      c.bdd_hits <- c.bdd_hits + 1;
      e
  | None ->
      c.bdd_misses <- c.bdd_misses + 1;
      if Scallop_bdd.Bdd.size c.manager > max_manager_nodes then begin
        c.resets <- c.resets + 1;
        (* Node ids restart after a manager reset and results are keyed by
           root id, so cached roots and results must all go together. *)
        Scallop_bdd.Bdd.clear c.manager;
        FTbl.reset c.bdds;
        RTbl.reset c.probs;
        RTbl.reset c.duals
      end;
      let root = Scallop_bdd.Bdd.of_dnf c.manager (List.map Formula.proof_literals formula) in
      let e = { root; cvars = Array.of_list (Formula.variables formula) } in
      FTbl.replace c.bdds key e;
      e

let cached_result (type r) (table : r RTbl.t) c ~(env : Formula.env) formula
    (compute : vars:int list -> Scallop_bdd.Bdd.t -> r) : r =
  let e = bdd_of_cached c formula in
  (* The weight vector enters the key — a training step that moves any input
     probability misses and recomputes; this is the invalidation rule. *)
  let values = Array.map (Formula.prob env) e.cvars in
  let rkey = (Scallop_bdd.Bdd.node_id e.root, values) in
  match RTbl.find_opt table rkey with
  | Some r ->
      c.result_hits <- c.result_hits + 1;
      r
  | None ->
      c.result_misses <- c.result_misses + 1;
      let r = compute ~vars:(Array.to_list e.cvars) e.root in
      if RTbl.length table >= max_result_entries then RTbl.reset table;
      RTbl.add table rkey r;
      r

(* ---- Inclusion–exclusion engine (mutual exclusion aware) ---------------- *)

(* Probability of a single conjunction of literals under categorical group
   semantics.  Proofs coming out of [Formula.merge_lits] are free of
   conflicts, so within a group there is at most one positive literal, and
   never a variable with both polarities.  The float operations run in a
   fixed order, which values and gradients depend on bit for bit: free
   literals in descending variable order, then each group in ascending
   group id, its literals in descending variable order. *)
let conj_weight (type a) (ops : a ops) ~(weight_of : int -> a) ~(env : Formula.env)
    (lits : int array) : a =
  let n = Array.length lits in
  let groups = Array.make n Formula.no_group in
  for i = 0 to n - 1 do
    groups.(i) <- Formula.group env (Formula.lit_var lits.(i))
  done;
  let acc = ref ops.one in
  for i = n - 1 downto 0 do
    if groups.(i) = Formula.no_group then begin
      let w = weight_of (Formula.lit_var lits.(i)) in
      acc := ops.mul !acc (if Formula.lit_pos lits.(i) then w else ops.complement w)
    end
  done;
  (* Groups in ascending id: repeatedly pick the least id above the last
     one done.  Per group, a positive literal implies the negatives of the
     other members; without one, P(none of the negated members chosen) =
     1 - Σ rᵢ, clamped. *)
  let above = ref Formula.no_group and more = ref true in
  while !more do
    let g = ref !above in
    for i = 0 to n - 1 do
      let h = groups.(i) in
      if h > !above && (!g = !above || h < !g) then g := h
    done;
    if !g = !above then more := false
    else begin
      let g = !g in
      let pos = ref (-1) in
      for i = 0 to n - 1 do
        if groups.(i) = g && Formula.lit_pos lits.(i) then pos := i
      done;
      let w =
        if !pos >= 0 then weight_of (Formula.lit_var lits.(!pos))
        else begin
          let s = ref ops.zero in
          for i = n - 1 downto 0 do
            if groups.(i) = g then s := ops.add !s (weight_of (Formula.lit_var lits.(i)))
          done;
          ops.max0 (ops.complement !s)
        end
      in
      acc := ops.mul !acc w;
      above := g
    end
  done;
  !acc

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let wmc_ie (type a) (ops : a ops) ~(weight_of : int -> a) ~(env : Formula.env)
    (formula : Formula.t) : a =
  let proofs =
    if List.length formula <= max_ie_proofs then formula
    else Formula.top_k env max_ie_proofs formula
  in
  let proofs = Array.of_list proofs in
  let n = Array.length proofs in
  (* merged.(mask): the conjunction of the proofs in [mask], built from the
     mask without its lowest proof; [None] once any two conflict *)
  let merged = Array.make (1 lsl n) (Some [||]) in
  let total = ref ops.zero in
  for mask = 1 to (1 lsl n) - 1 do
    let low = mask land -mask in
    let i = ref 0 in
    while 1 lsl !i <> low do
      incr i
    done;
    let m =
      match merged.(mask lxor low) with
      | None -> None
      | Some l -> Formula.merge_lits env l proofs.(!i).Formula.lits
    in
    merged.(mask) <- m;
    match m with
    | None -> ()
    | Some lits ->
        let w = conj_weight ops ~weight_of ~env lits in
        let w = if popcount mask mod 2 = 1 then w else ops.neg w in
        total := ops.add !total w
  done;
  !total

(* ---- public entry points ------------------------------------------------ *)

let rec has_me_vars env : Formula.t -> bool = function
  | [] -> false
  | p :: rest ->
      let lits = p.Formula.lits in
      let found = ref false in
      for i = 0 to Array.length lits - 1 do
        if Formula.group env (Formula.lit_var lits.(i)) <> Formula.no_group then found := true
      done;
      !found || has_me_vars env rest

(* Shared dispatch for the cached entry points: trivial formulas and the
   mutual-exclusion IE engine bypass the cache; the BDD path goes through
   the domain-local cache unless disabled. *)
let run_cached (type a) (ops : a ops) ~(weight_of : int -> a)
    ~(table : cache -> a RTbl.t) ~(env : Formula.env) formula : a =
  if Formula.is_false formula then ops.zero
  else if Formula.is_true formula then ops.one
  else if has_me_vars env formula then wmc_ie ops ~weight_of ~env formula
  else if not (cache_enabled ()) then wmc_bdd ops ~weight_of formula
  else
    let c = cache () in
    cached_result (table c) c ~env formula (fun ~vars root ->
        wmc_of_root ops ~weight_of ~vars root)

(** Plain probability. *)
let prob ~(env : Formula.env) formula =
  run_cached float_ops ~weight_of:(Formula.prob env) ~table:(fun c -> c.probs) ~env
    formula

(** Probability with gradient: each variable [v] is a dual [var v (prob v)]. *)
let dual ~(env : Formula.env) formula =
  run_cached dual_ops
    ~weight_of:(fun v -> Dual.var v (Formula.prob env v))
    ~table:(fun c -> c.duals) ~env formula
