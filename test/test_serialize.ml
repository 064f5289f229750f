(** Bit-exactness of the checkpoint substrate: {!Scallop_tensor.Serialize}
    round-trips (tensors, optimizer state, RNG stream positions — including
    NaN payloads, infinities and signed zeros) and {!Scallop_utils.Atomic_io}
    snapshot files (envelope validation, generation rotation, corruption and
    truncation fallback). *)

open Scallop_tensor
module Rng = Scallop_utils.Rng
module Atomic_io = Scallop_utils.Atomic_io
module Codec = Scallop_utils.Codec

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Bitwise tensor equality: NaN = NaN when the payloads match, 0.0 <> -0.0. *)
let nd_bits_equal (a : Nd.t) (b : Nd.t) =
  a.Nd.shape = b.Nd.shape
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Nd.data b.Nd.data

(* ---- Nd round trips -------------------------------------------------------------- *)

(* Floats whose special cases trip naive (structural-equality or textual)
   serializers: both zeros, infinities, quiet NaN, denormals. *)
let float_gen =
  QCheck.Gen.(
    frequency
      [
        (8, float);
        (1, oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; Float.min_float; epsilon_float ]);
      ])

let nd_gen =
  QCheck.Gen.(
    let* rank = int_range 1 3 in
    let* shape = list_repeat rank (int_range 1 4) in
    let shape = Array.of_list shape in
    let* data = list_repeat (Nd.shape_numel shape) float_gen in
    return { Nd.shape; data = Array.of_list data })

let qcheck_nd_roundtrip =
  qtest "Nd: serialize/deserialize is bit-identical (incl. nan/inf/-0.0)"
    (QCheck.make nd_gen) (fun t -> nd_bits_equal t (Serialize.nd_of_string (Serialize.nd_to_string t)))

let qcheck_nd_double_roundtrip =
  qtest "Nd: snapshot -> restore -> snapshot is byte-identical" (QCheck.make nd_gen) (fun t ->
      let s = Serialize.nd_to_string t in
      String.equal s (Serialize.nd_to_string (Serialize.nd_of_string s)))

let test_nd_truncation_detected () =
  let s = Serialize.nd_to_string (Nd.init [| 2; 3 |] float_of_int) in
  for cut = 0 to String.length s - 1 do
    match Serialize.nd_of_string (String.sub s 0 cut) with
    | _ -> Alcotest.failf "truncation to %d bytes not detected" cut
    | exception Serialize.Corrupt _ -> ()
  done

(* ---- RNG stream positions -------------------------------------------------------- *)

let qcheck_rng_resume_continues_sequence =
  qtest "Rng: restoring a saved state continues the exact sequence"
    QCheck.(pair small_nat small_nat)
    (fun (warmup, n) ->
      let rng = Rng.create 42 in
      for _ = 1 to warmup do
        ignore (Rng.next_int64 rng)
      done;
      let b = Buffer.create 8 in
      Serialize.put_rng b rng;
      let expected = List.init (n + 1) (fun _ -> Rng.next_int64 rng) in
      let restored = Rng.create 0 in
      Serialize.get_rng_into (Codec.reader (Buffer.contents b)) restored;
      expected = List.init (n + 1) (fun _ -> Rng.next_int64 restored))

let qcheck_rng_substreams_survive_resume =
  qtest "Rng: substreams derived after a restore match the original"
    QCheck.(pair small_nat (int_bound 1000))
    (fun (warmup, i) ->
      let rng = Rng.create 7 in
      for _ = 1 to warmup do
        ignore (Rng.next_int64 rng)
      done;
      let b = Buffer.create 8 in
      Serialize.put_rng b rng;
      let sub = Rng.substream rng i in
      let expected = List.init 4 (fun _ -> Rng.next_int64 sub) in
      let restored = Rng.create 0 in
      Serialize.get_rng_into (Codec.reader (Buffer.contents b)) restored;
      let sub' = Rng.substream restored i in
      expected = List.init 4 (fun _ -> Rng.next_int64 sub'))

(* ---- optimizer state ------------------------------------------------------------- *)

(* Take [steps] optimizer steps on a 2-parameter least-squares problem; the
   closed-over tensors are what serialization must capture. *)
let trained_opt ~kind ~steps =
  let w = Autodiff.param (Nd.init [| 2; 2 |] (fun i -> 0.1 *. float_of_int (i + 1))) in
  let b = Autodiff.param (Nd.zeros [| 1; 2 |]) in
  let opt =
    match kind with
    | `Adam -> Optim.adam ~lr:0.05 [ w; b ]
    | `Sgd -> Optim.sgd ~momentum:0.9 ~lr:0.05 [ w; b ]
  in
  let x = Autodiff.const (Nd.init [| 3; 2 |] (fun i -> float_of_int (i mod 3) -. 1.0)) in
  let target = Nd.init [| 3; 2 |] (fun i -> float_of_int (i mod 2)) in
  for _ = 1 to steps do
    let y = Autodiff.add_rowvec (Autodiff.matmul x w) b in
    let loss = Autodiff.mse_loss y (Autodiff.const target) in
    opt.Optim.zero_grad ();
    Autodiff.backward loss;
    opt.Optim.step ()
  done;
  opt

let snapshot_opt (opt : Optim.t) =
  let b = Buffer.create 256 in
  Serialize.put_params b opt.Optim.params;
  Serialize.put_optim b opt;
  Buffer.contents b

let roundtrip_kind kind () =
  List.iter
    (fun steps ->
      let opt = trained_opt ~kind ~steps in
      let blob = snapshot_opt opt in
      (* restore into a freshly-initialized instance of the same model *)
      let fresh = trained_opt ~kind ~steps:0 in
      let r = Codec.reader blob in
      Serialize.get_params_into r fresh.Optim.params;
      Serialize.get_optim_into r fresh;
      check Alcotest.bool
        (Fmt.str "reader consumed the whole snapshot (steps=%d)" steps)
        true (Codec.at_end r);
      check Alcotest.string
        (Fmt.str "restored state re-serializes identically (steps=%d)" steps)
        blob (snapshot_opt fresh))
    [ 0; 1; 7 ]

let test_optim_kind_mismatch_detected () =
  let adam = trained_opt ~kind:`Adam ~steps:2 in
  let sgd = trained_opt ~kind:`Sgd ~steps:0 in
  let r = Codec.reader (snapshot_opt adam) in
  Serialize.get_params_into r sgd.Optim.params;
  match Serialize.get_optim_into r sgd with
  | () -> Alcotest.fail "restoring Adam state into SGD must raise Corrupt"
  | exception Serialize.Corrupt _ -> ()

let test_param_shape_mismatch_detected () =
  let b = Buffer.create 64 in
  Serialize.put_params b [ Autodiff.param (Nd.zeros [| 2; 3 |]) ];
  let live = [ Autodiff.param (Nd.zeros [| 3; 2 |]) ] in
  match Serialize.get_params_into (Codec.reader (Buffer.contents b)) live with
  | () -> Alcotest.fail "shape mismatch must raise Corrupt"
  | exception Serialize.Corrupt _ -> ()

(* ---- Atomic_io snapshot files ---------------------------------------------------- *)

let tmp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scallop-test-%s-%d" name (Unix.getpid ()))
  in
  Atomic_io.clear ~dir;
  dir

let qcheck_envelope_roundtrip =
  qtest "Atomic_io: encode/decode round-trips any payload" QCheck.string (fun payload ->
      Atomic_io.decode (Atomic_io.encode payload) = Ok payload)

let qcheck_envelope_byte_flip_detected =
  qtest "Atomic_io: any single byte flip is rejected"
    QCheck.(pair string small_nat)
    (fun (payload, pos) ->
      let raw = Bytes.of_string (Atomic_io.encode payload) in
      let pos = pos mod Bytes.length raw in
      Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0x01));
      match Atomic_io.decode (Bytes.to_string raw) with
      | Error _ -> true
      | Ok p ->
          (* flipping a payload-length header byte can only "succeed" by
             truncating to a shorter prefix; a full-length Ok must be the
             original *)
          String.length payload > 0 && not (String.equal p payload))

let qcheck_envelope_truncation_detected =
  qtest "Atomic_io: every proper prefix is rejected"
    QCheck.(pair string small_nat)
    (fun (payload, cut) ->
      let raw = Atomic_io.encode payload in
      let cut = cut mod String.length raw in
      match Atomic_io.decode (String.sub raw 0 cut) with Error _ -> true | Ok _ -> false)

let test_save_load_rotation () =
  let dir = tmp_dir "rotation" in
  let gens = List.init 5 (fun i -> Atomic_io.save ~dir ~keep:3 (Printf.sprintf "payload-%d" i)) in
  check (Alcotest.list Alcotest.int) "sequential generation numbers" [ 0; 1; 2; 3; 4 ] gens;
  check (Alcotest.list Alcotest.int) "only the newest 3 survive" [ 2; 3; 4 ]
    (Atomic_io.Generations.list ~dir);
  (match Atomic_io.load_latest ~dir ~decode:Fun.id with
  | Some (4, "payload-4") -> ()
  | Some (g, p) -> Alcotest.failf "wrong snapshot loaded: gen %d payload %S" g p
  | None -> Alcotest.fail "no snapshot loaded");
  Atomic_io.clear ~dir;
  check (Alcotest.list Alcotest.int) "clear removes all generations" []
    (Atomic_io.Generations.list ~dir)

let corrupt_file path f =
  let ic = open_in_bin path in
  let raw = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
  let oc = open_out_bin path in
  output_string oc (f raw);
  close_out oc

let test_load_latest_skips_corrupt () =
  let dir = tmp_dir "corrupt" in
  ignore (Atomic_io.save ~dir "old");
  let newest = Atomic_io.save ~dir "new" in
  (* flip a payload byte of the newest snapshot *)
  corrupt_file (Atomic_io.Generations.path ~dir newest) (fun raw ->
      let b = Bytes.of_string raw in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
      Bytes.to_string b);
  (match Atomic_io.load_latest ~dir ~decode:Fun.id with
  | Some (_, "old") -> ()
  | Some (_, p) -> Alcotest.failf "expected fallback to %S, got %S" "old" p
  | None -> Alcotest.fail "fallback generation not found");
  Atomic_io.clear ~dir

let test_load_latest_skips_truncated () =
  let dir = tmp_dir "truncated" in
  ignore (Atomic_io.save ~dir "old");
  let newest = Atomic_io.save ~dir "new" in
  corrupt_file (Atomic_io.Generations.path ~dir newest) (fun raw ->
      String.sub raw 0 (String.length raw / 2));
  (match Atomic_io.load_latest ~dir ~decode:Fun.id with
  | Some (_, "old") -> ()
  | Some (_, p) -> Alcotest.failf "expected fallback to %S, got %S" "old" p
  | None -> Alcotest.fail "fallback generation not found");
  Atomic_io.clear ~dir

let test_load_latest_empty_dir () =
  let dir = tmp_dir "empty" in
  check Alcotest.bool "no snapshot in a fresh directory" true
    (Atomic_io.load_latest ~dir ~decode:Fun.id = None)

let suite =
  [
    qcheck_nd_roundtrip;
    qcheck_nd_double_roundtrip;
    Alcotest.test_case "Nd: truncation raises Corrupt" `Quick test_nd_truncation_detected;
    qcheck_rng_resume_continues_sequence;
    qcheck_rng_substreams_survive_resume;
    Alcotest.test_case "Adam: params+state round-trip bit-identically" `Quick
      (roundtrip_kind `Adam);
    Alcotest.test_case "SGD: velocity round-trips bit-identically" `Quick (roundtrip_kind `Sgd);
    Alcotest.test_case "optimizer kind mismatch raises Corrupt" `Quick
      test_optim_kind_mismatch_detected;
    Alcotest.test_case "parameter shape mismatch raises Corrupt" `Quick
      test_param_shape_mismatch_detected;
    qcheck_envelope_roundtrip;
    qcheck_envelope_byte_flip_detected;
    qcheck_envelope_truncation_detected;
    Alcotest.test_case "save/load: generation rotation keeps newest K" `Quick
      test_save_load_rotation;
    Alcotest.test_case "load_latest: corrupt newest falls back" `Quick
      test_load_latest_skips_corrupt;
    Alcotest.test_case "load_latest: truncated newest falls back" `Quick
      test_load_latest_skips_truncated;
    Alcotest.test_case "load_latest: empty directory" `Quick test_load_latest_empty_dir;
  ]
