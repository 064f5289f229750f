(** Dual numbers for forward-mode differentiation through provenance
    operations (paper Fig. 12).

    A dual number pairs a probability in [0,1] with its gradient with respect
    to the vector of input probabilities.  The paper uses dense vectors in
    R^n; we use a sparse map from input-variable id to partial derivative,
    which is asymptotically better since each output typically depends on a
    handful of inputs. *)

module IMap = Map.Make (Int)

type t = { v : float; d : float IMap.t }

let make v d = { v; d }
let const v = { v; d = IMap.empty }
let zero = const 0.0
let one = const 1.0

(** The input variable [i] with probability [r]: value r, derivative e_i. *)
let var i r = { v = r; d = IMap.singleton i 1.0 }

let value t = t.v
let deriv t = t.d
let deriv_list t = IMap.bindings t.d

let map_d f d = IMap.map f d

let merge_d f da db =
  IMap.merge
    (fun _ a b ->
      match (a, b) with
      | Some a, Some b -> Some (f a b)
      | Some a, None -> Some (f a 0.0)
      | None, Some b -> Some (f 0.0 b)
      | None, None -> None)
    da db

let add a b = { v = a.v +. b.v; d = merge_d ( +. ) a.d b.d }

let mul a b =
  {
    v = a.v *. b.v;
    d = merge_d ( +. ) (map_d (fun x -> x *. b.v) a.d) (map_d (fun x -> x *. a.v) b.d);
  }

let neg a = { v = -.a.v; d = map_d (fun x -> -.x) a.d }

(** 1 - a : the probabilistic complement. *)
let complement a = { v = 1.0 -. a.v; d = map_d (fun x -> -.x) a.d }

(** max/min select whichever argument has the larger/smaller value and keep
    its derivative (sub-gradient, as in the paper). *)
let max a b = if a.v >= b.v then a else b
let min a b = if a.v <= b.v then a else b

(** Clamp the value to [0,1] while keeping the derivative unchanged (the
    paper's straight-through clamp used by diff-add-mult-prob). *)
let clamp a = { a with v = Float.min 1.0 (Float.max 0.0 a.v) }

let scale k a = { v = k *. a.v; d = map_d (fun x -> k *. x) a.d }

let equal_value a b = Float.equal a.v b.v

let pp fmt t =
  Fmt.pf fmt "%.4f{%a}" t.v
    (Fmt.list ~sep:(Fmt.any ",") (fun fmt (i, g) -> Fmt.pf fmt "%d:%.3f" i g))
    (deriv_list t)
