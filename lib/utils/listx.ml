(** List and array helpers shared across the codebase. *)

(** [take n l] is the first [n] elements of [l] (all of [l] if shorter). *)
let rec take n l =
  if n <= 0 then []
  else match l with [] -> [] | x :: xs -> x :: take (n - 1) xs

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: xs -> drop (n - 1) xs

(** [group_by key l] buckets elements of [l] by [key], preserving the order of
    first appearance of each key and of elements within a bucket. *)
let group_by (type k) (module Ord : Map.OrderedType with type t = k) (key : 'a -> k) l =
  let module M = Map.Make (Ord) in
  let m, order =
    List.fold_left
      (fun (m, order) x ->
        let k = key x in
        match M.find_opt k m with
        | Some xs -> (M.add k (x :: xs) m, order)
        | None -> (M.add k [ x ] m, k :: order))
      (M.empty, []) l
  in
  List.rev_map (fun k -> (k, List.rev (M.find k m))) order

(** Cartesian product of a list of lists, in lexicographic order. *)
let rec cartesian = function
  | [] -> [ [] ]
  | xs :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun x -> List.map (fun t -> x :: t) tails) xs

(** All subsets of a list (2^n of them); used by the exact world-enumeration
    aggregator on small inputs. *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: xs ->
      let rest = subsets xs in
      rest @ List.map (fun s -> x :: s) rest

let sum_float l = List.fold_left ( +. ) 0.0 l

let average l =
  match l with [] -> 0.0 | _ -> sum_float l /. float_of_int (List.length l)

(** [range a b] is [a; a+1; ...; b-1]. *)
let range a b = if b <= a then [] else List.init (b - a) (fun i -> a + i)

(** Deduplicate preserving first occurrence (O(n^2); small lists only). *)
let dedup_stable eq l =
  List.fold_left (fun acc x -> if List.exists (eq x) acc then acc else x :: acc) [] l
  |> List.rev

(** Total order on floats for sort keys: NaN ranks as -∞ (ties with a real
    -∞ resolve by sort stability), so a NaN score never beats any other and
    the comparator stays consistent (transitive, antisymmetric) — plain
    [(<)] or [compare] on raw floats is not, which can corrupt
    [List.stable_sort]. *)
let float_key x = if Float.is_nan x then Float.neg_infinity else x

(** Top-[k] elements of [l] by descending [score] (stable for equal scores).
    Decorate–sort–undecorate: [score] runs once per element, not once per
    comparison.  NaN scores sort last (see {!float_key}). *)
let top_k_by (score : 'a -> float) k l =
  let decorated = List.map (fun x -> (float_key (score x), x)) l in
  let sorted =
    List.stable_sort (fun (sa, _) (sb, _) -> Float.compare sb sa) decorated
  in
  take k (List.map snd sorted)
