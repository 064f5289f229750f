(** Columnar attribute storage: one encoded column per tuple position.

    The columnar executor ({!Batch_ops}) keeps relations as struct-of-arrays
    batches: each attribute lives in one {!t}, and provenance tags in a
    parallel array.  Three encodings cover every {!Value.t}:

    - [I (ty, a)] — every value is [Int (ty, _)] with the {e same} type tag:
      a flat unboxed [int array].  Comparisons are native integer compares
      (the type tags are equal by construction), which is what makes sorting
      and merging runs an order of magnitude cheaper than {!Value.compare}
      over boxed tuples.
    - [F (ty, a)] — every value is [Float (ty, _)] with the same type tag: a
      flat unboxed [float array].  Comparisons use the polymorphic float
      order (the order [@@deriving ord] gives {!Value.t}), so NaN and signed
      zeros behave exactly as in the tree-walker.
    - [D (dict, codes)] — anything else (strings, bools, chars, or columns
      mixing types): dictionary encoding.  [dict] holds the distinct values
      {e sorted strictly} by {!Value.compare}, and [codes.(i)] indexes into
      it; because the dictionary is sorted, comparing codes of the same
      dictionary is comparing values.

    Encodings are chosen per column by {!pack} and round-trip losslessly
    ({!to_array}); [gather] and [merge] preserve the encoding (and share
    dictionaries), so a pipeline of σ/π/⋈ stays flat once packed. *)

type t =
  | I of Value.ty * int array
  | F of Value.ty * float array
  | D of Value.t array * int array

let length = function
  | I (_, a) -> Array.length a
  | F (_, a) -> Array.length a
  | D (_, codes) -> Array.length codes

let get (c : t) (i : int) : Value.t =
  match c with
  | I (ty, a) -> Value.int_interned ty a.(i)
  | F (ty, a) -> Value.Float (ty, a.(i))
  | D (dict, codes) -> dict.(codes.(i))

let to_array (c : t) : Value.t array = Array.init (length c) (get c)

(** Choose the densest encoding for the first [n] values of [vs].  O(n)
    for uniform int/float columns; O(n log d) (d distinct values) for the
    dictionary fallback. *)
let pack_prefix (vs : Value.t array) (n : int) : t =
  let uniform_int =
    n > 0
    && (match vs.(0) with
       | Value.Int (ty0, _) ->
           let ok = ref true in
           for i = 1 to n - 1 do
             match vs.(i) with
             | Value.Int (ty, _) when Value.equal_ty ty ty0 -> ()
             | _ -> ok := false
           done;
           !ok
       | _ -> false)
  in
  if uniform_int then
    match vs.(0) with
    | Value.Int (ty0, _) ->
        I (ty0, Array.init n (fun i -> match vs.(i) with Value.Int (_, x) -> x | _ -> assert false))
    | _ -> assert false
  else
    let uniform_float =
      n > 0
      && (match vs.(0) with
         | Value.Float (ty0, _) ->
             let ok = ref true in
             for i = 1 to n - 1 do
               match vs.(i) with
               | Value.Float (ty, _) when Value.equal_ty ty ty0 -> ()
               | _ -> ok := false
             done;
             !ok
         | _ -> false)
    in
    if uniform_float then
      match vs.(0) with
      | Value.Float (ty0, _) ->
          F (ty0, Array.init n (fun i -> match vs.(i) with Value.Float (_, x) -> x | _ -> assert false))
      | _ -> assert false
    else begin
      let sorted = Array.sub vs 0 n in
      Array.sort Value.compare sorted;
      let distinct = ref 0 in
      Array.iteri
        (fun i v ->
          if i = 0 || Value.compare sorted.(i - 1) v <> 0 then begin
            sorted.(!distinct) <- v;
            incr distinct
          end)
        sorted;
      let dict = Array.sub sorted 0 !distinct in
      (* binary-search each value's code; the dictionary is strictly sorted *)
      let code v =
        let lo = ref 0 and hi = ref (Array.length dict - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Value.compare dict.(mid) v < 0 then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      D (dict, Array.init n (fun i -> code vs.(i)))
    end

let pack (vs : Value.t array) : t = pack_prefix vs (Array.length vs)

(* ---- comparisons ------------------------------------------------------------ *)

(** Compare row [i] of column [a] against row [j] of column [b], with the
    exact order of {!Value.compare}.  Fast paths: same-typed flat columns
    compare unboxed; same-dictionary columns compare codes. *)
let cmp_across (a : t) (b : t) (i : int) (j : int) : int =
  match (a, b) with
  | I (ta, xa), I (tb, xb) ->
      let c = Value.compare_ty ta tb in
      if c <> 0 then c else Stdlib.compare (xa.(i) : int) xb.(j)
  | F (ta, xa), F (tb, xb) ->
      let c = Value.compare_ty ta tb in
      if c <> 0 then c else Stdlib.compare (xa.(i) : float) xb.(j)
  | D (da, ca), D (db, cb) when da == db -> Stdlib.compare (ca.(i) : int) cb.(j)
  | _ -> Value.compare (get a i) (get b j)

(* ---- bulk movement ---------------------------------------------------------- *)

(** Select the rows [idx.(0 .. n-1)], preserving the encoding
    (dictionaries are shared, not copied).  [idx] may be longer than [n]:
    callers stage indices in reusable scratch buffers. *)
let gather (c : t) (idx : int array) (n : int) : t =
  match c with
  | I (ty, a) -> I (ty, Array.init n (fun k -> a.(idx.(k))))
  | F (ty, a) -> F (ty, Array.init n (fun k -> a.(idx.(k))))
  | D (dict, codes) -> D (dict, Array.init n (fun k -> codes.(idx.(k))))

(** Concatenate two columns; falls back to re-packing when the encodings are
    incompatible (different int/float types, different dictionaries). *)
let append (a : t) (b : t) : t =
  match (a, b) with
  | I (ta, xa), I (tb, xb) when Value.equal_ty ta tb -> I (ta, Array.append xa xb)
  | F (ta, xa), F (tb, xb) when Value.equal_ty ta tb -> F (ta, Array.append xa xb)
  | D (da, ca), D (db, cb) when da == db -> D (da, Array.append ca cb)
  | _ -> pack (Array.append (to_array a) (to_array b))

(** Merge two columns along the first [n] entries of a sorted-merge plan:
    entry [p] takes row [p lsr 1] of [a] when [p land 1 = 0], of [b]
    otherwise.  Encodings are preserved when compatible. *)
let merge (a : t) (b : t) (plan : int array) (n : int) : t =
  let pick xa xb =
    Array.init n (fun k ->
        let p = plan.(k) in
        if p land 1 = 0 then xa.(p lsr 1) else xb.(p lsr 1))
  in
  match (a, b) with
  | I (ta, xa), I (tb, xb) when Value.equal_ty ta tb -> I (ta, pick xa xb)
  | F (ta, xa), F (tb, xb) when Value.equal_ty ta tb -> F (ta, pick xa xb)
  | D (da, ca), D (db, cb) when da == db -> D (da, pick ca cb)
  | _ ->
      pack
        (Array.init n (fun k ->
             let p = plan.(k) in
             if p land 1 = 0 then get a (p lsr 1) else get b (p lsr 1)))
