(** Dense float ndarrays (rank ≤ 2 in practice): the raw storage layer under
    the autodiff {!Autodiff.Var}.  This plays the role PyTorch tensors play
    for the original Scallop (see DESIGN.md, substitutions): enough linear
    algebra to train the MLP perception models of the benchmark suite. *)

type t = { data : float array; shape : int array }

let numel t = Array.length t.data

let rank t = Array.length t.shape

let shape_numel shape = Array.fold_left ( * ) 1 shape

let create shape v = { data = Array.make (shape_numel shape) v; shape }
let zeros shape = create shape 0.0
let ones shape = create shape 1.0
let scalar v = { data = [| v |]; shape = [| 1; 1 |] }

let of_array shape data =
  if Array.length data <> shape_numel shape then invalid_arg "Nd.of_array: shape mismatch";
  { data; shape }

let init shape f = { data = Array.init (shape_numel shape) f; shape }

let copy t = { data = Array.copy t.data; shape = Array.copy t.shape }

let same_shape a b = a.shape = b.shape

let reshape t shape =
  if shape_numel shape <> numel t then invalid_arg "Nd.reshape: element count mismatch";
  { data = t.data; shape }

let get1 t i = t.data.(i)
let set1 t i v = t.data.(i) <- v
let get2 t i j = t.data.((i * t.shape.(1)) + j)
let set2 t i j v = t.data.((i * t.shape.(1)) + j) <- v

let map f t = { data = Array.map f t.data; shape = t.shape }

let map2 f a b =
  if not (same_shape a b) then invalid_arg "Nd.map2: shape mismatch";
  { data = Array.init (numel a) (fun i -> f a.data.(i) b.data.(i)); shape = a.shape }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let mul a b = map2 ( *. ) a b
let scale k t = map (fun x -> k *. x) t
let neg t = scale (-1.0) t

(* In-place accumulation, used by gradient summation. *)
let add_ dst src =
  if not (same_shape dst src) then invalid_arg "Nd.add_: shape mismatch";
  Array.iteri (fun i v -> dst.data.(i) <- dst.data.(i) +. v) src.data

(** True iff every element is neither NaN nor infinite. *)
let is_finite t = Array.for_all Float.is_finite t.data

let sum t = Array.fold_left ( +. ) 0.0 t.data
let mean t = sum t /. float_of_int (numel t)

let max_elt t = Array.fold_left Float.max neg_infinity t.data

(** 2-D matrix multiply: (m×k) · (k×n) → (m×n). *)
let matmul a b =
  if rank a <> 2 || rank b <> 2 then invalid_arg "Nd.matmul: rank-2 required";
  let m = a.shape.(0) and k = a.shape.(1) and n = b.shape.(1) in
  if b.shape.(0) <> k then invalid_arg "Nd.matmul: inner dimension mismatch";
  let out = zeros [| m; n |] in
  for i = 0 to m - 1 do
    for l = 0 to k - 1 do
      let av = a.data.((i * k) + l) in
      if av <> 0.0 then
        for j = 0 to n - 1 do
          out.data.((i * n) + j) <- out.data.((i * n) + j) +. (av *. b.data.((l * n) + j))
        done
    done
  done;
  out

let transpose t =
  if rank t <> 2 then invalid_arg "Nd.transpose: rank-2 required";
  let m = t.shape.(0) and n = t.shape.(1) in
  init [| n; m |] (fun idx ->
      let i = idx / m and j = idx mod m in
      t.data.((j * n) + i))

(** Add a row vector (1×n or n) to every row of an m×n matrix. *)
let add_rowvec mat vec =
  if rank mat <> 2 then invalid_arg "Nd.add_rowvec";
  let m = mat.shape.(0) and n = mat.shape.(1) in
  if numel vec <> n then invalid_arg "Nd.add_rowvec: width mismatch";
  init [| m; n |] (fun idx -> mat.data.(idx) +. vec.data.(idx mod n))

(** Column-wise sum of an m×n matrix → 1×n (gradient of add_rowvec). *)
let sum_rows mat =
  let m = mat.shape.(0) and n = mat.shape.(1) in
  let out = zeros [| 1; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      out.data.(j) <- out.data.(j) +. mat.data.((i * n) + j)
    done
  done;
  out

(** Row-wise softmax of an m×n matrix. *)
let softmax_rows mat =
  let m = mat.shape.(0) and n = mat.shape.(1) in
  let out = zeros [| m; n |] in
  for i = 0 to m - 1 do
    let mx = ref neg_infinity in
    for j = 0 to n - 1 do
      mx := Float.max !mx mat.data.((i * n) + j)
    done;
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      let e = exp (mat.data.((i * n) + j) -. !mx) in
      out.data.((i * n) + j) <- e;
      s := !s +. e
    done;
    for j = 0 to n - 1 do
      out.data.((i * n) + j) <- out.data.((i * n) + j) /. !s
    done
  done;
  out

(** Index of the max element in row [i]. *)
let argmax_row mat i =
  let n = mat.shape.(1) in
  let best = ref 0 in
  for j = 1 to n - 1 do
    if mat.data.((i * n) + j) > mat.data.((i * n) + !best) then best := j
  done;
  !best

(** Stack a list of row vectors (each 1×n) into an m×n matrix. *)
let stack_rows rows =
  match rows with
  | [] -> invalid_arg "Nd.stack_rows: empty"
  | r0 :: _ ->
      let n = numel r0 in
      let m = List.length rows in
      let out = zeros [| m; n |] in
      List.iteri (fun i r -> Array.blit r.data 0 out.data (i * n) n) rows;
      out

(* ---- random initialization ------------------------------------------------ *)

let randn rng ?(mu = 0.0) ?(sigma = 1.0) shape =
  init shape (fun _ -> Scallop_utils.Rng.gaussian ~mu ~sigma rng)

let uniform rng lo hi shape = init shape (fun _ -> Scallop_utils.Rng.uniform rng lo hi)

(** Glorot/Xavier uniform initialization for a fan_in×fan_out weight. *)
let xavier rng fan_in fan_out =
  let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  uniform rng (-.limit) limit [| fan_in; fan_out |]

let pp fmt t =
  Fmt.pf fmt "tensor%a[%a]"
    (Fmt.brackets (Fmt.array ~sep:(Fmt.any "x") Fmt.int))
    t.shape
    (Fmt.array ~sep:(Fmt.any ", ") (fun fmt v -> Fmt.pf fmt "%.3f" v))
    (if numel t <= 16 then t.data else Array.sub t.data 0 16)
