(** Reduced ordered binary decision diagrams with hash-consing.

    This is the decision-diagram substrate behind Scallop's weighted model
    counting (the paper uses bottom-up-compiled SDDs; ROBDDs are an
    equivalent-for-our-purposes d-DNNF-style representation supporting
    linear-time algebraic model counting, see DESIGN.md).

    Nodes are hash-consed inside a [manager], so structural equality is
    pointer/id equality and [apply] can be memoized on node ids.  Variables
    are integers ordered by their natural order. *)

type node = False | True | Node of { id : int; var : int; lo : t; hi : t }
and t = node

let node_id = function False -> 0 | True -> 1 | Node { id; _ } -> id

type manager = {
  mutable next_id : int;
  unique : (int * int * int, t) Hashtbl.t; (* (var, lo-id, hi-id) -> node *)
  and_cache : (int * int, t) Hashtbl.t;
  or_cache : (int * int, t) Hashtbl.t;
  not_cache : (int, t) Hashtbl.t;
}

let manager () =
  {
    next_id = 2;
    unique = Hashtbl.create 1024;
    and_cache = Hashtbl.create 1024;
    or_cache = Hashtbl.create 1024;
    not_cache = Hashtbl.create 256;
  }

let size m = m.next_id

(** Return the manager to its freshly-created state, dropping every node and
    apply-cache entry.  Roots obtained earlier remain structurally valid
    immutable trees, but their node ids will collide with newly allocated
    ones — callers caching roots must drop them alongside this call. *)
let clear m =
  m.next_id <- 2;
  Hashtbl.reset m.unique;
  Hashtbl.reset m.and_cache;
  Hashtbl.reset m.or_cache;
  Hashtbl.reset m.not_cache

(** Internal smart constructor enforcing reduction (lo == hi collapses) and
    sharing (unique table). *)
let mk m var lo hi =
  if node_id lo = node_id hi then lo
  else
    let key = (var, node_id lo, node_id hi) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
        let n = Node { id = m.next_id; var; lo; hi } in
        m.next_id <- m.next_id + 1;
        Hashtbl.add m.unique key n;
        n

let bfalse : t = False
let btrue : t = True
let var m v = mk m v False True

let top_var = function
  | Node { var; _ } -> var
  | _ -> max_int

let rec band m a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, x | x, True -> x
  | _ ->
      let ka = node_id a and kb = node_id b in
      let key = if ka <= kb then (ka, kb) else (kb, ka) in
      (match Hashtbl.find_opt m.and_cache key with
      | Some r -> r
      | None ->
          let va = top_var a and vb = top_var b in
          let v = min va vb in
          let (alo, ahi) =
            match a with
            | Node { var; lo; hi; _ } when var = v -> (lo, hi)
            | _ -> (a, a)
          in
          let (blo, bhi) =
            match b with
            | Node { var; lo; hi; _ } when var = v -> (lo, hi)
            | _ -> (b, b)
          in
          let r = mk m v (band m alo blo) (band m ahi bhi) in
          Hashtbl.add m.and_cache key r;
          r)

let rec bor m a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, x | x, False -> x
  | _ ->
      let ka = node_id a and kb = node_id b in
      let key = if ka <= kb then (ka, kb) else (kb, ka) in
      (match Hashtbl.find_opt m.or_cache key with
      | Some r -> r
      | None ->
          let va = top_var a and vb = top_var b in
          let v = min va vb in
          let (alo, ahi) =
            match a with
            | Node { var; lo; hi; _ } when var = v -> (lo, hi)
            | _ -> (a, a)
          in
          let (blo, bhi) =
            match b with
            | Node { var; lo; hi; _ } when var = v -> (lo, hi)
            | _ -> (b, b)
          in
          let r = mk m v (bor m alo blo) (bor m ahi bhi) in
          Hashtbl.add m.or_cache key r;
          r)

let rec bnot m a =
  match a with
  | False -> True
  | True -> False
  | Node { id; var; lo; hi } -> (
      match Hashtbl.find_opt m.not_cache id with
      | Some r -> r
      | None ->
          let r = mk m var (bnot m lo) (bnot m hi) in
          Hashtbl.add m.not_cache id r;
          r)

(** Build a BDD for a conjunction of literals given as (var, sign),
    in any order. *)
let cube m lits =
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) lits in
  (* Building bottom-up from the largest variable keeps [mk] cheap. *)
  List.fold_left
    (fun acc (v, sign) -> if sign then mk m v False acc else mk m v acc False)
    True sorted

(** Build a BDD for a DNF: a list of cubes. *)
let of_dnf m dnf = List.fold_left (fun acc c -> bor m acc (cube m c)) False dnf

(** Count satisfying assignments over a universe of variables [0..nvars-1].
    Variables skipped along a BDD path are free and each doubles the count. *)
let count_sat nvars root =
  let memo = Hashtbl.create 64 in
  (* [models node above] = number of models over variables strictly greater
     than [above]; memoized on (node id, above). *)
  let rec models node above =
    match node with
    | False -> 0.0
    | True -> 2.0 ** float_of_int (nvars - above - 1)
    | Node { id; var; lo; hi } -> (
        let key = (id, above) in
        match Hashtbl.find_opt memo key with
        | Some r -> r
        | None ->
            let gap = 2.0 ** float_of_int (var - above - 1) in
            let r = gap *. (models lo var +. models hi var) in
            Hashtbl.add memo key r;
            r)
  in
  models root (-1)

(** Algebraic model counting: sum over satisfying assignments of the product
    of per-variable weights.  [w_pos v] and [w_neg v] give the weight of
    variable [v] appearing positively / negatively; weights live in any
    commutative semiring presented by [add]/[mul]/[one]/[zero].  For
    probabilities with [w_pos v = p_v], [w_neg v = 1 - p_v] this computes the
    weighted model count used by diff-top-k-proofs' ρ; instantiated with dual
    numbers it also yields the gradient. *)
let wmc (type a) ~(zero : a) ~(one : a) ~(add : a -> a -> a) ~(mul : a -> a -> a)
    ~(w_pos : int -> a) ~(w_neg : int -> a) ~(vars : int list) (root : t) : a =
  (* [vars] must be sorted ascending and include every variable in the BDD;
     skipped variables contribute (w_pos + w_neg) factors. *)
  let vars = Array.of_list vars in
  let n = Array.length vars in
  let idx_of = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace idx_of v i) vars;
  let full i = add (w_pos vars.(i)) (w_neg vars.(i)) in
  (* product of [full] weights for variable indices in [lo, hi) *)
  let rec span lo hi acc = if lo >= hi then acc else span (lo + 1) hi (mul acc (full lo)) in
  let memo = Hashtbl.create 64 in
  let rec go node =
    (* weight over variables with index >= idx(top_var node), result paired
       with the index at which it starts *)
    match node with
    | False -> (zero, n)
    | True -> (one, n)
    | Node { id; var; lo; hi } -> (
        let i = match Hashtbl.find_opt idx_of var with Some i -> i | None -> invalid_arg "Bdd.wmc: variable missing from vars" in
        match Hashtbl.find_opt memo id with
        | Some r -> (r, i)
        | None ->
            (* A False child contributes the annihilating zero: spanning the
               skipped variables over it would multiply zero O(|vars|) times
               per node — on long cubes that turns linear counting
               quadratic. *)
            let wlo, ilo = go lo in
            let wlo = match lo with False -> wlo | _ -> span (i + 1) ilo wlo in
            let whi, ihi = go hi in
            let whi = match hi with False -> whi | _ -> span (i + 1) ihi whi in
            let r = add (mul (w_neg var) wlo) (mul (w_pos var) whi) in
            Hashtbl.add memo id r;
            (r, i))
  in
  let w, i = go root in
  span 0 i w

(** Evaluate the BDD under a total assignment. *)
let rec eval assign node =
  match node with
  | False -> false
  | True -> true
  | Node { var; lo; hi; _ } -> if assign var then eval assign hi else eval assign lo

let rec pp fmt = function
  | False -> Fmt.string fmt "F"
  | True -> Fmt.string fmt "T"
  | Node { var; lo; hi; _ } -> Fmt.pf fmt "(x%d ? %a : %a)" var pp hi pp lo
