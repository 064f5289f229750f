(** Boolean formulas in disjunctive normal form, the tag space of the
    top-k-proofs family of provenances (paper Fig. 13, Appendix B.4.3/4).

    A {e proof} is a conjunction of literals [pos(i)] / [neg(i)] over input
    variable ids.  A formula holds at most [k] proofs; the operations
    [disj_k], [conj_k] and [neg_k] mirror ∨k, ∧k and ¬k from the paper:
    logical or/and/not on DNF followed by truncation to the [k] proofs of
    highest probability.

    Formulas produced by the operations here are kept in a {e canonical
    order}: descending probability (under a total float order where NaN
    sorts last), ties broken by [proof_compare].  The canonical order makes
    the output independent of proof insertion order, lets fixpoint
    saturation use the cheap ordered {!equal_ordered} instead of the O(n²)
    set comparison, and is what the guided best-first implementations of
    [conj_k]/[neg_k] exploit to prune low-weight proofs {e before}
    materializing them (see DESIGN.md, "Guided lazy proof search").  The
    eager ¬k stays here as [neg_k_eager], the guided one's fallback; the
    eager ∨k and ∧k of the differential-test oracle live with the test
    tree-walker.

    Mutual exclusion (Appendix B.4.4): input facts may belong to an exclusion
    group; a proof containing two distinct positive literals from the same
    group is contradictory and removed during conflict checking. *)

(* --- environments -------------------------------------------------------- *)

(** Everything the formula operations need to know about variables: their
    probability and their mutual-exclusion group ([no_group] when none).
    Variables below the length of the dense tables [probs]/[groups] are
    read from them; the others from [prob_of]/[group_of].  A variable's
    probability and group must not change once a proof mentioning it has
    been weighed: [id] names the environment in every proof's cached
    probability, and a cached value is only read back under the same id. *)
type env = {
  id : int;
  mutable probs : float array;
  mutable groups : int array;
  prob_of : int -> float;
  group_of : int -> int;
}

let no_group = min_int
let next_env_id = Atomic.make 0

let make_env ~probs ~groups ~prob_of ~group_of =
  { id = Atomic.fetch_and_add next_env_id 1; probs; groups; prob_of; group_of }

(** An environment given by functions. *)
let env ?me_group prob =
  let group_of =
    match me_group with
    | None -> fun _ -> no_group
    | Some f -> fun v -> ( match f v with Some g -> g | None -> no_group)
  in
  make_env ~probs:[||] ~groups:[||] ~prob_of:prob ~group_of

(** An environment kept in tables indexed by variable id, filled with
    {!set_var}; unset variables have probability 1 and no group. *)
let table_env () =
  make_env ~probs:(Array.make 64 1.0) ~groups:(Array.make 64 no_group)
    ~prob_of:(fun _ -> 1.0)
    ~group_of:(fun _ -> no_group)

(** Set the probability and group of a variable no proof mentions yet.
    Growing the tables copies [prob_of]/[group_of] into the new slots, so
    every other variable reads as before. *)
let set_var envr v p g =
  let n = Array.length envr.probs in
  if v >= n then begin
    let size = Stdlib.max (v + 1) (2 * n) in
    envr.probs <- Array.init size (fun u -> if u < n then envr.probs.(u) else envr.prob_of u);
    envr.groups <- Array.init size (fun u -> if u < n then envr.groups.(u) else envr.group_of u)
  end;
  envr.probs.(v) <- p;
  envr.groups.(v) <- g

let prob envr v =
  let t = envr.probs in
  if v >= 0 && v < Array.length t then Array.unsafe_get t v else envr.prob_of v

let group envr v =
  let t = envr.groups in
  if v >= 0 && v < Array.length t then Array.unsafe_get t v else envr.group_of v

(* --- literals and proofs -------------------------------------------------- *)

(* A literal is [2·var + polarity] (1 = positive).  Sorting literals as ints
   sorts them by variable, then negative before positive — the binding order
   of the former [bool IMap.t] proofs under [IMap.compare Bool.compare]. *)
let lit v s = (2 * v) + if s then 1 else 0
let lit_var l = l asr 1
let lit_pos l = l land 1 = 1

(** A proof: its literals in ascending order, at most one per variable, and
    its probability [pw] under the environment whose id is [penv] ([-1]:
    not computed yet).  Proofs are immutable; compare them with
    {!proof_equal}/{!proof_compare}, never with polymorphic equality. *)
type proof = { lits : int array; pw : float; penv : int }

type t = proof list
(** Invariant: proofs are distinct, none absorbs another, and they appear in
    canonical order (descending probability, ties by [proof_compare]) —
    maintained by every operation below that returns a [t]. *)

(* Product of the literal probabilities in ascending variable order (paper
   Eq. 1) — the order every proof probability has always been folded in, so
   the bits never depend on how the proof was built.  Reads the table inline
   rather than through [prob], which would box every factor. *)
let lits_prob envr (lits : int array) =
  let t = envr.probs in
  let acc = ref 1.0 in
  for i = 0 to Array.length lits - 1 do
    let l = Array.unsafe_get lits i in
    let v = lit_var l in
    let r = if v >= 0 && v < Array.length t then Array.unsafe_get t v else envr.prob_of v in
    acc := !acc *. if lit_pos l then r else 1.0 -. r
  done;
  !acc

let unweighed lits = { lits; pw = Float.nan; penv = -1 }
let weighed envr lits = { lits; pw = lits_prob envr lits; penv = envr.id }

(** Probability of a proof: the cached value when it was computed under
    [envr], otherwise recomputed from the literals. *)
let proof_prob envr p = if p.penv = envr.id then p.pw else lits_prob envr p.lits

(** [p] with its probability under [envr] cached. *)
let with_prob envr p = if p.penv = envr.id then p else weighed envr p.lits

(** A proof from [(var, polarity)] pairs; a later pair for the same variable
    overrides an earlier one. *)
let proof_of_literals lits =
  let last = List.fold_left (fun acc (v, s) -> (v, s) :: List.remove_assoc v acc) [] lits in
  unweighed (Array.of_list (List.sort Int.compare (List.map (fun (v, s) -> lit v s) last)))

let proof_literals p = Array.fold_right (fun l acc -> (lit_var l, lit_pos l) :: acc) p.lits []
let true_proof = unweighed [||]
let singleton_pos i = unweighed [| lit i true |]
let singleton_neg i = unweighed [| lit i false |]

(* Length of the common prefix of two literal arrays. *)
let common_prefix (la : int array) (lb : int array) =
  let n = Stdlib.min (Array.length la) (Array.length lb) in
  let i = ref 0 in
  while !i < n && Array.unsafe_get la !i = Array.unsafe_get lb !i do
    incr i
  done;
  !i

let proof_equal a b =
  a == b
  ||
  let n = Array.length a.lits in
  n = Array.length b.lits && common_prefix a.lits b.lits = n

(* Lexicographic on literal arrays, a proper prefix first. *)
let compare_lits (la : int array) (lb : int array) =
  let i = common_prefix la lb in
  if i < Array.length la && i < Array.length lb then Int.compare la.(i) lb.(i)
  else Int.compare (Array.length la) (Array.length lb)

(** The tie order of the canonical order: {!compare_lits} on the literals. *)
let proof_compare a b = compare_lits a.lits b.lits

(* Two distinct positive literals of one exclusion group. *)
let me_conflict envr (lits : int array) =
  let n = Array.length lits in
  let conflict = ref false and i = ref 0 in
  while (not !conflict) && !i < n do
    let l = lits.(!i) in
    let g = if lit_pos l then group envr (lit_var l) else no_group in
    if g <> no_group then
      for j = !i + 1 to n - 1 do
        let l' = lits.(j) in
        if lit_pos l' && group envr (lit_var l') = g then conflict := true
      done;
    incr i
  done;
  !conflict

(** The sorted union of two literal arrays; [None] when they conflict —
    same variable with both polarities, or (with mutual exclusion) two
    distinct positive variables of the same group.  Returns an argument
    itself when it already holds the union. *)
let merge_lits envr (a : int array) (b : int array) : int array option =
  let na = Array.length a and nb = Array.length b in
  (* first pass: the size of the union, or -1 on a polarity clash *)
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !n >= 0 && !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      incr i;
      incr j;
      incr n
    end
    else if lit_var x = lit_var y then n := -1
    else begin
      if x < y then incr i else incr j;
      incr n
    end
  done;
  if !n < 0 then None
  else begin
    let n = !n + (na - !i) + (nb - !j) in
    let out =
      if n = na then a
      else if n = nb then b
      else begin
        let out = Array.make n 0 and i = ref 0 and j = ref 0 in
        for k = 0 to n - 1 do
          if !j = nb || (!i < na && a.(!i) <= b.(!j)) then begin
            if !j < nb && a.(!i) = b.(!j) then incr j;
            out.(k) <- a.(!i);
            incr i
          end
          else begin
            out.(k) <- b.(!j);
            incr j
          end
        done;
        out
      end
    in
    if me_conflict envr out then None else Some out
  end

(** Merge two proofs into their conjunction, weighed under [envr]; [None]
    when they conflict (see {!merge_lits}). *)
let merge_proofs envr (a : proof) (b : proof) : proof option =
  match merge_lits envr a.lits b.lits with Some l -> Some (weighed envr l) | None -> None

(* --- formulas ------------------------------------------------------------ *)

let ff : t = []
let tt : t = [ true_proof ]
let of_pos i : t = [ singleton_pos i ]
let is_false (t : t) = t = []
let is_true (t : t) = List.exists (fun p -> Array.length p.lits = 0) t

(** Set equality, independent of proof order.  O(n²); kept as the oracle
    notion of equality — fixpoint saturation uses {!equal_ordered}. *)
let equal (a : t) (b : t) =
  List.length a = List.length b
  && List.for_all (fun p -> List.exists (proof_equal p) b) a

(** Ordered equality: valid whenever both sides are canonical (which every
    operation below guarantees), where it coincides with {!equal} at O(n)
    cost.  The physical-equality fast path makes the common "nothing changed
    this iteration" saturation check O(1). *)
let equal_ordered (a : t) (b : t) =
  a == b
  || (List.compare_lengths a b = 0 && List.for_all2 proof_equal a b)

let dedup proofs = Scallop_utils.Listx.dedup_stable proof_equal proofs

(** [p] absorbs [q] if p ⊆ q (then p ∨ q = p): a subset test on the sorted
    literal arrays. *)
let absorbs (p : proof) (q : proof) =
  let lp = p.lits and lq = q.lits in
  let np = Array.length lp and nq = Array.length lq in
  let i = ref 0 and j = ref 0 in
  while !i < np && np - !i <= nq - !j do
    let x = lp.(!i) and y = lq.(!j) in
    if x = y then incr i;
    (* x < y: x is missing from q, which the length test then reports *)
    j := if x < y then nq + 1 else !j + 1
  done;
  !i = np

(* --- canonical order ------------------------------------------------------ *)

(* Sort key for a proof probability: a total order where NaN sorts below
   everything (a NaN-weighted proof never beats a real one, and comparisons
   stay consistent). *)
let prob_key x = if Float.is_nan x then Float.neg_infinity else x

(* Canonical order on weighed proofs: descending probability key, ties by
   proof_compare. *)
let dcompare a b =
  let c = Float.compare (prob_key b.pw) (prob_key a.pw) in
  if c <> 0 then c else proof_compare a b

(* Some proof among the first [m] slots of [c] is a strict subset of [q]. *)
let absorbed_among (c : proof array) m q =
  let lq = Array.length q.lits in
  let found = ref false and j = ref 0 in
  while (not !found) && !j < m do
    let p = c.(!j) in
    if Array.length p.lits < lq && absorbs p q then found := true;
    incr j
  done;
  !found

(* Canonicalize the weighed candidates of [c] in place: sort, drop
   duplicates (equal proofs have equal keys, hence are adjacent after
   sorting; the earliest copy stays), then keep the first [k] proofs no
   other candidate absorbs.  An absorber is a subset of what it absorbs, so
   its probability key is >= the absorbed one's whenever weights lie in
   [0,1]; we still scan all pairs so the result matches the eager oracle
   even on adversarial weights.  Returns the number of survivors, which sit
   in canonical order at the front of [c]. *)
let finalize k (c : proof array) =
  (* Stable insertion sort: no allocation on the handful of candidates a
     call usually has, and the absorption scan below is quadratic anyway. *)
  for i = 1 to Array.length c - 1 do
    let x = c.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && dcompare c.(!j) x > 0 do
      c.(!j + 1) <- c.(!j);
      decr j
    done;
    c.(!j + 1) <- x
  done;
  let m = ref 0 in
  for i = 0 to Array.length c - 1 do
    if !m = 0 || not (proof_equal c.(i) c.(!m - 1)) then begin
      c.(!m) <- c.(i);
      incr m
    end
  done;
  let m = !m in
  (* Survivors move to the front.  An overwritten slot held a survivor
     (copied earlier) or an absorbed proof, and whatever absorbed it is a
     strict subset that some survivor or unread slot still holds, so the
     absorption test stays exact. *)
  let s = ref 0 and i = ref 0 in
  while !s < k && !i < m do
    let q = c.(!i) in
    if not (absorbed_among c m q) then begin
      c.(!s) <- q;
      incr s
    end;
    incr i
  done;
  !s

let rec list_of_prefix (c : proof array) i acc =
  if i < 0 then acc else list_of_prefix c (i - 1) (c.(i) :: acc)

let prefix_to_list c n = list_of_prefix c (n - 1) []

(* Weigh the proofs of a list into [c] from slot [i] on. *)
let rec weigh_into envr (c : proof array) i = function
  | [] -> ()
  | p :: rest ->
      c.(i) <- with_prob envr p;
      weigh_into envr c (i + 1) rest

let weigh_all envr (proofs : proof list) =
  let c = Array.make (List.length proofs) true_proof in
  weigh_into envr c 0 proofs;
  c

(** Keep the [k] proofs of highest probability, in canonical order. *)
let top_k envr k proofs =
  if k <= 0 then ff
  else
    let c = weigh_all envr proofs in
    prefix_to_list c (finalize k c)

(* --- eager ¬k (the guided one's fallback) ----------------------------------- *)

(* The CNF of ¬t: one clause per proof, the negation of each of its
   literals (flipping the polarity bit keeps the array sorted). *)
let negated_clauses (t : t) = List.map (fun p -> Array.map (fun l -> l lxor 1) p.lits) t

(** ¬k : negate every literal giving a CNF, then convert back to DNF by
    distribution with conflict checking (cnf2dnf, Fig. 13).  The raw
    conversion is exponential; we bound every intermediate result by [beam]
    (≥ k) proofs of highest probability, as the final answer is truncated to
    [k] anyway. *)
let neg_k_eager ?beam envr k (t : t) : t =
  let beam = match beam with Some b -> Stdlib.max b k | None -> Stdlib.max (8 * k) 64 in
  let result =
    List.fold_left
      (fun acc clause ->
        let next =
          List.concat_map
            (fun p ->
              List.filter_map
                (fun l -> merge_proofs envr p (unweighed [| l |]))
                (Array.to_list clause))
            acc
        in
        top_k envr beam next)
      tt (negated_clauses t)
  in
  top_k envr k result

(* --- guided best-first operations ----------------------------------------- *)

(* Shared driver for the guided searches.  [pop_expand] pops the
   highest-bound frontier node, possibly appending to [candidates], and
   returns false once the frontier is exhausted; [peek_key] is the bound of
   the best unexpanded node.  Expansion stops as soon as every remaining
   frontier bound is strictly below the k-th surviving candidate's key:
   since bounds are admissible (>= the key of every candidate reachable
   through that node) and proofs below the k-th survivor can neither enter
   the top k nor absorb/duplicate a survivor (an absorber is a subset, so
   its probability is >= its victim's), the survivors equal the eager
   oracle's — see DESIGN.md for the full argument. *)
let best_first ~k ~(peek_key : unit -> float option)
    ~(pop_expand : unit -> bool) ~(candidates : proof list ref) : t =
  let rec settle () =
    let c = Array.of_list !candidates in
    let nsurv = finalize k c in
    let bar = if nsurv < k then None else Some (prob_key c.(k - 1).pw) in
    match peek_key () with
    | None -> prefix_to_list c nsurv
    | Some top_key -> (
        match bar with
        | Some b when top_key < b -> prefix_to_list c nsurv
        | _ ->
            (* Expand a batch before re-finalizing: everything whose bound
               still ties or beats the bar, or (while short of k survivors)
               enough nodes to plausibly fill the gap. *)
            let budget = ref (Stdlib.max 1 (k - nsurv)) in
            let continue_pop () =
              match peek_key () with
              | None -> false
              | Some key -> (
                  match bar with Some b -> key >= b | None -> !budget > 0)
            in
            ignore (pop_expand ());
            (match bar with None -> decr budget | Some _ -> ());
            while continue_pop () do
              ignore (pop_expand ());
              (match bar with None -> decr budget | Some _ -> ())
            done;
            settle ())
  in
  settle ()

(* The slots of [c] from [i] on hold the proofs of the list, physically. *)
let rec holds_list (c : proof array) i = function
  | [] -> true
  | p :: rest -> c.(i) == p && holds_list c (i + 1) rest

(** ∨k, guided: both inputs are (or are brought to) canonical order, so the
    union is a merge followed by the shared canonicalization; probabilities
    are cached on the proofs.  Returns the left argument physically
    unchanged when the union adds nothing — the common case once a relation
    has converged. *)
let disj_k envr k (a : t) (b : t) : t =
  if k <= 0 then ff
  else if is_false b && List.compare_length_with a k <= 0 then a
  else begin
    let na = List.length a in
    let c = Array.make (na + List.length b) true_proof in
    weigh_into envr c 0 a;
    weigh_into envr c na b;
    let n = finalize k c in
    if n = na && holds_list c 0 a then a else prefix_to_list c n
  end

(** ∧k, guided: best-first over the grid of proof pairs, both sides sorted
    in canonical (descending-probability) order.  The bound of cell (i, j)
    is min(key aᵢ, key bⱼ) — admissible because the merged proof is a
    superset of each parent, so (for weights in [0,1]) its probability can
    only be lower.  Cells are expanded best-bound-first; (i+1, j) and
    (i, j+1) enter the frontier when (i, j) is expanded, so bounds along any
    path are nonincreasing and the frontier always dominates the unexplored
    region.  Small products fall back to the eager pairwise merge, which is
    cheaper than maintaining a frontier. *)
let conj_k envr k (a : t) (b : t) : t =
  if k <= 0 || is_false a || is_false b then ff
  else
    match (a, b) with
    | [ pa ], [ pb ] -> (
        (* one candidate is already canonical *)
        match merge_lits envr pa.lits pb.lits with Some l -> [ weighed envr l ] | None -> ff)
    | _ ->
        let na = List.length a and nb = List.length b in
        if float_of_int na *. float_of_int nb <= 4.0 *. float_of_int k then begin
          (* Small product: the full pairwise merge costs less than a
             frontier, and only merged candidates need a probability. *)
          let c = Array.make (na * nb) true_proof in
          let n = ref 0 in
          List.iter
            (fun pa ->
              List.iter
                (fun pb ->
                  match merge_proofs envr pa pb with
                  | Some m ->
                      c.(!n) <- m;
                      incr n
                  | None -> ())
                b)
            a;
          let c = if !n < Array.length c then Array.sub c 0 !n else c in
          prefix_to_list c (finalize k c)
        end
        else begin
          let da = weigh_all envr a and db = weigh_all envr b in
          Array.sort dcompare da;
          Array.sort dcompare db;
          let bound i j = Float.min (prob_key da.(i).pw) (prob_key db.(j).pw) in
          let heap =
            Scallop_utils.Heap.create ~cmp:(fun (u1, _, _) (u2, _, _) -> Float.compare u1 u2)
          in
          let seen = Bytes.make (na * nb) '\000' in
          let push i j =
            if i < na && j < nb && Bytes.get seen ((i * nb) + j) = '\000' then begin
              Bytes.set seen ((i * nb) + j) '\001';
              Scallop_utils.Heap.push heap (bound i j, i, j)
            end
          in
          push 0 0;
          let candidates = ref [] in
          let peek_key () = Option.map (fun (u, _, _) -> u) (Scallop_utils.Heap.peek heap) in
          let pop_expand () =
            match Scallop_utils.Heap.pop heap with
            | None -> false
            | Some (_, i, j) ->
                (match merge_proofs envr da.(i) db.(j) with
                | Some m -> candidates := m :: !candidates
                | None -> ());
                push (i + 1) j;
                push i (j + 1);
                true
          in
          best_first ~k ~peek_key ~pop_expand ~candidates
        end

(* Above this k the guided negation would have to enumerate essentially the
   whole cnf2dnf expansion anyway; delegate to the beam-bounded eager code
   (this keeps the exact/proofs provenances, k = max_int, on their historic
   path). *)
let guided_neg_k_limit = 1024

(* Safety valve: a guided negation that expands more nodes than this falls
   back to the eager beam search rather than thrashing on an adversarial
   clause structure. *)
let guided_neg_max_expansions = 20_000

(** ¬k, guided: best-first over {e partial} DNF proofs.  A node is a partial
    proof that satisfies the first [i] CNF clauses; its bound is its own
    probability — admissible because extending a proof with further literals
    (weights in [0,1]) can only lower it, and extending with an
    already-present literal keeps it equal.  Clauses are processed shortest
    first to keep the branching factor low (the set of complete proofs is
    independent of clause order). *)
let neg_k ?beam envr k (t : t) : t =
  if k <= 0 then ff
  else if k > guided_neg_k_limit then neg_k_eager ?beam envr k t
  else begin
    let clauses =
      negated_clauses t
      |> List.sort (fun c1 c2 ->
             let c = Int.compare (Array.length c1) (Array.length c2) in
             if c <> 0 then c else compare_lits c1 c2)
      |> Array.of_list
    in
    let n = Array.length clauses in
    let heap =
      Scallop_utils.Heap.create ~cmp:(fun (u1, _, _) (u2, _, _) -> Float.compare u1 u2)
    in
    let seen = Hashtbl.create 64 in
    let push (d : proof) idx =
      let key = (idx, d.lits) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        Scallop_utils.Heap.push heap (prob_key d.pw, d, idx)
      end
    in
    push (with_prob envr true_proof) 0;
    let candidates = ref [] in
    let expansions = ref 0 in
    let peek_key () = Option.map (fun (u, _, _) -> u) (Scallop_utils.Heap.peek heap) in
    let exception Too_many in
    let pop_expand () =
      match Scallop_utils.Heap.pop heap with
      | None -> false
      | Some (_, d, idx) ->
          incr expansions;
          if !expansions > guided_neg_max_expansions then raise Too_many;
          if idx = n then candidates := d :: !candidates
          else
            Array.iter
              (fun l ->
                match merge_lits envr d.lits [| l |] with
                | Some m -> push (if m == d.lits then d else weighed envr m) (idx + 1)
                | None -> ())
              clauses.(idx);
          true
    in
    try best_first ~k ~peek_key ~pop_expand ~candidates
    with Too_many -> neg_k_eager ?beam envr k t
  end

(** All variables mentioned by the formula, ascending. *)
let variables (t : t) =
  List.concat_map (fun p -> Array.fold_right (fun l acc -> lit_var l :: acc) p.lits []) t
  |> List.sort_uniq Int.compare

(** Hard upper bound on the formula probability: the probability of the
    disjunction assuming proofs disjoint, clamped. Used as a cheap weight. *)
let prob_upper_bound envr (t : t) =
  Float.min 1.0 (List.fold_left (fun acc p -> acc +. proof_prob envr p) 0.0 t)

let pp_proof fmt p =
  Fmt.pf fmt "{%a}"
    (Fmt.list ~sep:(Fmt.any " ") (fun fmt (v, s) ->
         Fmt.pf fmt "%s%d" (if s then "" else "~") v))
    (proof_literals p)

let pp fmt (t : t) =
  if is_false t then Fmt.string fmt "false"
  else Fmt.pf fmt "%a" (Fmt.list ~sep:(Fmt.any " | ") pp_proof) t
