(** The little-endian binary codec behind every on-disk payload: session
    ops and snapshots ({!Scallop_incr.Durable}), ship frames and acks
    ({!Scallop_incr.Replica}) and training checkpoints
    ({!Scallop_tensor.Serialize}).

    Integers travel as 8-byte little-endian words, floats as their IEEE-754
    bits (so probabilities, NaN payloads and signed zeros round-trip
    bit-exactly), strings and sequences behind an 8-byte length, options
    and booleans as a 0/1 byte.  The encoding is not self-describing:
    framing, versioning and checksums belong to the envelope ({!Wal},
    {!Atomic_io}).  Readers raise {!Decode} on any structural mismatch. *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode msg)) fmt

(* ---- writing ----------------------------------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let add_char b c = Buffer.add_char b c
let add_bool b v = add_u8 b (if v then 1 else 0)
let add_i64 b v = Buffer.add_int64_le b v
let add_int b v = add_i64 b (Int64.of_int v)
let add_f64 b v = add_i64 b (Int64.bits_of_float v)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_opt f b = function
  | None -> add_u8 b 0
  | Some v ->
      add_u8 b 1;
      f b v

let add_list f b l =
  add_int b (List.length l);
  List.iter (f b) l

let add_array f b a =
  add_int b (Array.length a);
  Array.iter (f b) a

(** [encode f v] is the bytes [f] writes for [v]. *)
let encode ?(size = 64) f v =
  let b = Buffer.create size in
  f b v;
  Buffer.contents b

(* ---- reading ----------------------------------------------------------------- *)

type reader = { buf : string; mutable pos : int }

let reader buf = { buf; pos = 0 }
let at_end r = r.pos >= String.length r.buf

let need r n =
  if r.pos + n > String.length r.buf then fail "truncated field at byte %d" r.pos

let u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let char r = Char.chr (u8 r)

let bool r =
  match u8 r with 0 -> false | 1 -> true | v -> fail "bad boolean byte %d" v

let i64 r =
  need r 8;
  let v = String.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let int r = Int64.to_int (i64 r)
let f64 r = Int64.float_of_bits (i64 r)

(** A length or count in [0, max]; [what] names it in the error. *)
let count ?(max = max_int) r what =
  let n = int r in
  if n < 0 || n > max then fail "bad %s %d" what n;
  n

let str r =
  let n = count ~max:(String.length r.buf) r "string length" in
  need r n;
  let v = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  v

let opt f r = match u8 r with 0 -> None | 1 -> Some (f r) | t -> fail "bad option tag %d" t
let list ?max what f r = List.init (count ?max r what) (fun _ -> f r)
let array ?max what f r = Array.init (count ?max r what) (fun _ -> f r)

(** Reject bytes left over after a complete value. *)
let finish r what = if not (at_end r) then fail "trailing bytes in %s" what

(** [decode what f s] reads all of [s] with [f]. *)
let decode what f s =
  let r = reader s in
  let v = f r in
  finish r what;
  v
