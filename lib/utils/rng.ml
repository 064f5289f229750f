(** Deterministic, splittable pseudo-random number generation.

    All stochastic components of the system (dataset generation, weight
    initialization, samplers, RL environments) draw from this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 [Steele et al. 2014], which has a 64-bit state,
    passes BigCrush, and supports O(1) splitting. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(** Raw 64-bit stream position, for serialization: a generator restored
    with {!set_state} continues the exact output sequence of the generator
    {!state} was read from. *)
let state t = t.state

let set_state t s = t.state <- s

(* One SplitMix64 step: advance the state and scramble the output. *)
let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [split t] returns a new generator whose stream is statistically
    independent of [t]'s subsequent outputs. *)
let split t = { state = next_int64 t }

(* The SplitMix64 output scrambler, without advancing any state. *)
let scramble z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [substream t i] derives member [i ≥ 0] of an indexed family of
    generators rooted at [t]'s {e current} state, without advancing [t].
    Unlike {!split}, the derivation is a pure function of (state, i): the
    same base generator yields the same family regardless of how many
    substreams are taken or in which order — this is what parallel batch
    execution uses to give every sample its own reproducible stream,
    independent of worker count and scheduling. *)
let substream t i =
  if i < 0 then invalid_arg "Rng.substream: index must be >= 0";
  { state = scramble (Int64.add t.state (Int64.mul golden (Int64.of_int (i + 1)))) }

(** [split_n t n] is [| substream t 0; ...; substream t (n-1) |]. *)
let split_n t n = Array.init n (substream t)

(** Uniform int in [0, bound). Raises [Invalid_argument] if [bound <= 0]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int non-negatively. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(** Uniform float in [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(** Uniform float in [lo, hi). *)
let uniform t lo hi = lo +. (float t *. (hi -. lo))

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Box–Muller; we discard the second variate for simplicity. *)
let gaussian ?(mu = 0.0) ?(sigma = 1.0) t =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

(** Sample an index according to unnormalized non-negative [weights].
    Falls back to uniform choice if all weights are zero, or if the total is
    not finite (NaN/∞ from upstream numerics): with a NaN total the
    cumulative scan below never fires ([x < !acc] is always false) and would
    otherwise silently return the last index every time — a hidden bias, not
    a sample. *)
let categorical t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 || not (Float.is_finite total) then int t (Array.length weights)
  else begin
    let x = float t *. total in
    let acc = ref 0.0 in
    let res = ref (Array.length weights - 1) in
    (try
       Array.iteri
         (fun i w ->
           acc := !acc +. w;
           if x < !acc then begin
             res := i;
             raise Exit
           end)
         weights
     with Exit -> ());
    !res
  end

(** In-place Fisher–Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** [choose t lst] picks a uniform element of a non-empty list. *)
let choose t lst =
  match lst with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth lst (int t (List.length lst))

(** [sample_indices t k n] draws [k] distinct indices uniformly from [0, n)
    ([k ≤ n]), returned in ascending order.  Partial Fisher–Yates: only the
    first [k] positions are shuffled. *)
let sample_indices t k n =
  if k > n then invalid_arg "Rng.sample_indices: k > n";
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  let sel = Array.sub idx 0 k in
  Array.sort compare sel;
  sel

(** [weighted_sample_indices t k weights] draws [k] distinct indices without
    replacement ([k ≤ n]): each round picks proportionally to the remaining
    non-negative weights (chosen indices are zeroed out), falling back to a
    uniform choice among the unchosen when no weight remains — so exactly [k]
    indices are always returned.  Ascending order. *)
let weighted_sample_indices t k (weights : float array) =
  let n = Array.length weights in
  if k > n then invalid_arg "Rng.weighted_sample_indices: k > n";
  (* Sanitize: negative weights clamp to 0; non-finite weights (NaN/∞) also
     become 0 — [Float.max 0.0 nan] is NaN and would poison every later
     round's total. *)
  let w =
    Array.map (fun x -> if Float.is_finite x && x > 0.0 then x else 0.0) weights
  in
  let chosen = Array.make n false in
  let uniform_unchosen remaining =
    let j = ref (int t remaining) in
    let res = ref (-1) in
    (try
       for i = 0 to n - 1 do
         if not chosen.(i) then
           if !j = 0 then begin
             res := i;
             raise Exit
           end
           else decr j
       done
     with Exit -> ());
    !res
  in
  for round = 0 to k - 1 do
    let total = Array.fold_left ( +. ) 0.0 w in
    let i =
      if total > 0.0 then begin
        let i = categorical t w in
        (* float rounding in the categorical scan can land on an
           already-chosen (zero-weight) index; treat as the uniform case *)
        if chosen.(i) then uniform_unchosen (n - round) else i
      end
      else uniform_unchosen (n - round)
    in
    chosen.(i) <- true;
    w.(i) <- 0.0
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if chosen.(i) then out := i :: !out
  done;
  Array.of_list !out
