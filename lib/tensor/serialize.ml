(** Bit-exact binary serialization of training state.

    Everything a crash-safe checkpoint must capture round-trips through this
    module: {!Nd} tensors, {!Autodiff} parameter lists, {!Optim} state
    (SGD velocity, Adam m/v/t) and {!Scallop_utils.Rng} stream positions.
    Floats are written as their IEEE-754 bit patterns ([Int64.bits_of_float]),
    so a snapshot → restore → snapshot cycle is byte-identical and a resumed
    run continues the exact numeric trajectory of the uninterrupted one —
    including NaN payloads and signed zeros.

    The encoding is {!Scallop_utils.Codec}'s little-endian stream with no
    self-description; framing, versioning and corruption detection are the
    job of {!Scallop_utils.Atomic_io}'s snapshot envelope.  Readers raise
    {!Corrupt} on any structural mismatch (bad tag, shape mismatch,
    truncation), which checkpoint loading treats like a failed checksum:
    fall back to an older generation. *)

module Codec = Scallop_utils.Codec

exception Corrupt = Codec.Decode

(* ---- writers ------------------------------------------------------------------ *)

let put_nd b (t : Nd.t) =
  Codec.add_array Codec.add_int b t.Nd.shape;
  Array.iter (Codec.add_f64 b) t.Nd.data

let put_nd_array b (a : Nd.t array) = Codec.add_array put_nd b a

(** Parameter values only (gradients are transient; a checkpoint is taken
    between optimizer steps where they carry no information). *)
let put_params b (params : Autodiff.t list) =
  Codec.add_list (fun b (p : Autodiff.t) -> put_nd b p.Autodiff.value) b params

let put_rng b (rng : Scallop_utils.Rng.t) = Codec.add_i64 b (Scallop_utils.Rng.state rng)

let put_optim b (o : Optim.t) =
  match o.Optim.state with
  | Optim.Sgd_state { velocity } ->
      Codec.add_int b 1;
      put_nd_array b velocity
  | Optim.Adam_state { m; v; t } ->
      Codec.add_int b 2;
      Codec.add_int b t;
      put_nd_array b m;
      put_nd_array b v

(* ---- readers ------------------------------------------------------------------ *)

let get_nd r : Nd.t =
  let shape = Codec.array ~max:16 "tensor rank" Codec.int r in
  let n = Nd.shape_numel shape in
  if n < 0 then Codec.fail "negative tensor size";
  { Nd.shape; data = Array.init n (fun _ -> Codec.f64 r) }

let get_nd_array r : Nd.t array = Codec.array "tensor-array length" get_nd r

(* Restore [src]'s elements into the live tensor [dst] in place, so closures
   holding [dst] (optimizer steps, parameter updates) see the state. *)
let blit_nd ~what (src : Nd.t) (dst : Nd.t) =
  if src.Nd.shape <> dst.Nd.shape then
    Codec.fail "%s: snapshot shape does not match live tensor" what;
  Array.blit src.Nd.data 0 dst.Nd.data 0 (Array.length src.Nd.data)

(** Restore parameter values in place; the parameter list must match the
    snapshot in length and shapes (i.e. the same model architecture). *)
let get_params_into r (params : Autodiff.t list) =
  let n = Codec.int r in
  if n <> List.length params then
    Codec.fail "parameter count mismatch: snapshot %d, live %d" n (List.length params);
  List.iteri
    (fun i (p : Autodiff.t) ->
      blit_nd ~what:(Printf.sprintf "param %d" i) (get_nd r) p.Autodiff.value)
    params

(** Restore a generator to the serialized stream position. *)
let get_rng_into r (rng : Scallop_utils.Rng.t) =
  Scallop_utils.Rng.set_state rng (Codec.i64 r)

let blit_nd_array ~what (src : Nd.t array) (dst : Nd.t array) =
  if Array.length src <> Array.length dst then
    Codec.fail "%s: tensor-array length mismatch" what;
  Array.iteri (fun i s -> blit_nd ~what:(Printf.sprintf "%s[%d]" what i) s dst.(i)) src

(** Restore optimizer state in place; the optimizer must have the same kind
    and parameter shapes as the snapshotted one. *)
let get_optim_into r (o : Optim.t) =
  let tag = Codec.int r in
  match (tag, o.Optim.state) with
  | 1, Optim.Sgd_state { velocity } -> blit_nd_array ~what:"sgd velocity" (get_nd_array r) velocity
  | 2, Optim.Adam_state st ->
      st.t <- Codec.int r;
      blit_nd_array ~what:"adam m" (get_nd_array r) st.m;
      blit_nd_array ~what:"adam v" (get_nd_array r) st.v
  | 1, Optim.Adam_state _ -> Codec.fail "snapshot holds SGD state but optimizer is Adam"
  | 2, Optim.Sgd_state _ -> Codec.fail "snapshot holds Adam state but optimizer is SGD"
  | t, _ -> Codec.fail "unknown optimizer tag %d" t

(* ---- convenience: single-value round trips ------------------------------------ *)

let nd_to_string (t : Nd.t) = Codec.encode ~size:(16 + (8 * Nd.numel t)) put_nd t
let nd_of_string s = get_nd (Codec.reader s)
