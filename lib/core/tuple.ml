(** Relational tuples: fixed-arity sequences of primitive values.

    Tuples are the elements of relations (paper Fig. 6).  They are compared
    lexicographically, which gives relations a canonical sorted order and
    lets us store them in balanced maps keyed by tuple. *)

type t = Value.t array

let arity (t : t) = Array.length t
let of_list = Array.of_list
let unit : t = [||]
let get (t : t) i = t.(i)

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (Value.equal x b.(i)) then ok := false) a;
      !ok)

(* Top level rather than a local loop, so that a comparison allocates no
   closure: building a relation fact by fact compares O(n log n) times. *)
let rec compare_from (a : t) (b : t) i =
  let la = Array.length a and lb = Array.length b in
  if i >= la && i >= lb then 0
  else if i >= la then -1
  else if i >= lb then 1
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare (a : t) (b : t) = compare_from a b 0

let append (a : t) (b : t) : t = Array.append a b

(** Project the columns listed in [cols] (in that order). *)
let project cols (t : t) : t = Array.of_list (List.map (fun i -> t.(i)) cols)

let pp fmt (t : t) =
  Fmt.pf fmt "(%a)" (Fmt.array ~sep:(Fmt.any ", ") Value.pp) t

let to_string t = Fmt.str "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
