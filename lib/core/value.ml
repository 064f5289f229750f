(** Primitive values and their static types.

    Scallop relations contain tuples of statically-typed primitive values:
    signed/unsigned integers of various widths, floats, booleans, characters
    and strings (paper Sec. 3.1).  All integer widths share the native [int]
    representation; sized types are wrapped to their width on construction so
    that overflow behaves like the source system (e.g. [u8] arithmetic wraps
    at 256).  [usize]/[isize] use the full native width. *)

type ty =
  | I8
  | I16
  | I32
  | I64
  | ISize
  | U8
  | U16
  | U32
  | U64
  | USize
  | F32
  | F64
  | Bool
  | Char
  | Str
[@@deriving eq, ord]

type t =
  | Int of ty * int
  | Float of ty * float
  | B of bool
  | C of char
  | S of string
[@@deriving eq, ord]

let ty_name = function
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | ISize -> "isize"
  | U8 -> "u8"
  | U16 -> "u16"
  | U32 -> "u32"
  | U64 -> "u64"
  | USize -> "usize"
  | F32 -> "f32"
  | F64 -> "f64"
  | Bool -> "bool"
  | Char -> "char"
  | Str -> "String"

let ty_of_name = function
  | "i8" -> Some I8
  | "i16" -> Some I16
  | "i32" -> Some I32
  | "i64" -> Some I64
  | "isize" -> Some ISize
  | "u8" -> Some U8
  | "u16" -> Some U16
  | "u32" -> Some U32
  | "u64" -> Some U64
  | "usize" -> Some USize
  | "f32" -> Some F32
  | "f64" -> Some F64
  | "bool" -> Some Bool
  | "char" -> Some Char
  | "String" -> Some Str
  | _ -> None

let is_integer_ty = function
  | I8 | I16 | I32 | I64 | ISize | U8 | U16 | U32 | U64 | USize -> true
  | _ -> false

let is_signed_ty = function I8 | I16 | I32 | I64 | ISize -> true | _ -> false
let is_unsigned_ty ty = is_integer_ty ty && not (is_signed_ty ty)
let is_float_ty = function F32 | F64 -> true | _ -> false
let is_numeric_ty ty = is_integer_ty ty || is_float_ty ty

(* Bit width of sized integer types; native types get the host width. *)
let bits_of_ty = function
  | I8 | U8 -> 8
  | I16 | U16 -> 16
  | I32 | U32 -> 32
  | I64 | U64 | ISize | USize -> Sys.int_size
  | _ -> invalid_arg "Value.bits_of_ty: not an integer type"

(** Wrap a raw integer into the representable range of [ty]. *)
let wrap_int ty n =
  let bits = bits_of_ty ty in
  if bits >= Sys.int_size then
    (* Native-width types: signed is the host int; u64/usize are modeled as
       the host int as well (non-negative in practice). *)
    n
  else
    let m = 1 lsl bits in
    let masked = n land (m - 1) in
    if is_signed_ty ty && masked >= m / 2 then masked - m else masked

(** Smart constructor: build an integer value, wrapping to the type's range.
    Returns [None] for an unsigned type receiving a negative value that did
    not come from wrapping arithmetic — callers constructing from literals
    should use [int_lit]. *)
let int ty n = Int (ty, wrap_int ty n)

(** A program literal elaborated to [ty]: built at [ty] when that is an
    integer type, wrapping to its range, and at native width otherwise, for
    the cast around it to convert. *)
let int_literal ty n = int (if is_integer_ty ty then ty else I64) n

let float ty f = Float (ty, f)
let bool b = B b
let char c = C c
let string s = S s

let type_of = function
  | Int (ty, _) -> ty
  | Float (ty, _) -> ty
  | B _ -> Bool
  | C _ -> Char
  | S _ -> Str

let to_int = function
  | Int (_, n) -> Some n
  | Float (_, f) -> Some (int_of_float f)
  | B b -> Some (if b then 1 else 0)
  | C c -> Some (Char.code c)
  | S _ -> None

let to_float = function
  | Int (_, n) -> Some (float_of_int n)
  | Float (_, f) -> Some f
  | B b -> Some (if b then 1.0 else 0.0)
  | C _ | S _ -> None

let to_bool = function B b -> Some b | _ -> None

let pp fmt = function
  | Int (_, n) -> Fmt.int fmt n
  | Float (_, f) -> Fmt.float fmt f
  | B b -> Fmt.bool fmt b
  | C c -> Fmt.pf fmt "'%c'" c
  | S s -> Fmt.pf fmt "%S" s

let to_string v = Fmt.str "%a" pp v

(** Cast a value to another primitive type, mirroring Scallop's [as]
    operator.  Fails ([None]) on unparseable string-to-number casts. *)
let cast target v =
  match (target, v) with
  | t, v when equal_ty t (type_of v) -> Some v
  | t, Int (_, n) when is_integer_ty t -> Some (int t n)
  | t, Int (_, n) when is_float_ty t -> Some (float t (float_of_int n))
  | t, Float (_, f) when is_float_ty t -> Some (float t f)
  | t, Float (_, f) when is_integer_ty t ->
      if Float.is_nan f then None else Some (int t (int_of_float f))
  | t, B b when is_integer_ty t -> Some (int t (if b then 1 else 0))
  | Str, v -> Some (S (match v with S s -> s | _ -> to_string v))
  | t, S s when is_integer_ty t -> Option.map (int t) (int_of_string_opt s)
  | t, S s when is_float_ty t -> Option.map (float t) (float_of_string_opt s)
  | Char, Int (_, n) when n >= 0 && n < 256 -> Some (C (Char.chr n))
  | _ -> None

(* Interned small-int boxes: columnar result decoding re-boxes the same few
   hundred distinct values hundreds of thousands of times, so sharing the
   boxes removes most of that allocation.  Values are immutable and nothing
   compares them physically, so the sharing is unobservable. *)
let intern_limit = 1024
let mk_pool ty = Array.init intern_limit (fun n -> Int (ty, n))
let intern_i8 = mk_pool I8
let intern_i16 = mk_pool I16
let intern_i32 = mk_pool I32
let intern_i64 = mk_pool I64
let intern_isize = mk_pool ISize
let intern_u8 = mk_pool U8
let intern_u16 = mk_pool U16
let intern_u32 = mk_pool U32
let intern_u64 = mk_pool U64
let intern_usize = mk_pool USize
let no_intern : t array = [||]

let intern_pool = function
  | I8 -> intern_i8
  | I16 -> intern_i16
  | I32 -> intern_i32
  | I64 -> intern_i64
  | ISize -> intern_isize
  | U8 -> intern_u8
  | U16 -> intern_u16
  | U32 -> intern_u32
  | U64 -> intern_u64
  | USize -> intern_usize
  | F32 | F64 | Bool | Char | Str -> no_intern

(** [int_interned ty n] = [Int (ty, n)], physically shared for small [n]. *)
let int_interned (ty : ty) (n : int) : t =
  let pool = intern_pool ty in
  if n >= 0 && n < Array.length pool then pool.(n) else Int (ty, n)

(** A stable 64-bit-ish hash used by the [$hash] foreign function. *)
let hash_value v =
  let h = Hashtbl.hash in
  match v with
  | Int (_, n) -> h (0, n)
  | Float (_, f) -> h (1, f)
  | B b -> h (2, b)
  | C c -> h (3, c)
  | S s -> h (4, s)
