(** SplitMix64, the benchmark's own generator.

    Inputs come from here rather than from {!Scallop_utils.Rng} so that a
    change to the library's generator can never change what the benchmark
    sends: the same [--seed] gives byte-identical request lines at every
    commit. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** An independent stream per ([seed], [stream]) pair. *)
let create ~seed ~stream =
  let s = Int64.logxor (mix (Int64.of_int seed)) (Int64.mul golden (Int64.of_int (stream + 1))) in
  { state = mix s }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

(** Uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))
