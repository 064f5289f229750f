(** Differential fuzzing: grammar-directed random programs evaluated under
    every mode pair (naive/semi-naive × cached/uncached) plus a 2-domain
    [Session.run_batch]; all modes must agree with the naive uncached
    reference.  Every program additionally runs under the columnar batch
    executor — naive, semi-naive cached/uncached, and a 2-domain batch —
    and must match its same-mode tree-walker twin {e bit-exactly} (tuples
    and recovered probabilities), negation and aggregation included.
    Failure messages carry the offending seed and program so a divergence
    can be replayed deterministically. *)

open Scallop_core
open Scallop_fuzz

let master_seed = 0xF02A

let check_spec ?(recursion = true) ?columnar_only name spec ~first ~count () =
  match Fuzz_gen.check_range ~recursion ?columnar_only ~spec ~master_seed ~first ~count () with
  | [] -> ()
  | failures ->
      let shown = List.filteri (fun i _ -> i < 3) failures in
      Alcotest.failf "%d of %d seeds diverged under %s (master seed %#x):@\n%s"
        (List.length failures) count name master_seed
        (String.concat "\n---\n" shown)

let check_incr ?(recursion = true) ?(parallel = false) name spec ~first ~count () =
  let sweep =
    if parallel then Fuzz_gen.check_incr_parallel else Fuzz_gen.check_incr_range
  in
  match sweep ~recursion ~spec ~master_seed ~first ~count () with
  | [] -> ()
  | failures ->
      let shown = List.filteri (fun i _ -> i < 3) failures in
      Alcotest.failf
        "%d of %d interleavings diverged under %s (master seed %#x):@\n%s"
        (List.length failures) count name master_seed
        (String.concat "\n---\n" shown)

let suite =
  [
    Alcotest.test_case "boolean: 70 programs, all modes + columnar agree" `Slow
      (check_spec "boolean" Registry.Boolean ~first:0 ~count:70);
    Alcotest.test_case "minmaxprob: 70 programs, all modes + columnar agree" `Slow
      (check_spec "minmaxprob" Registry.Max_min_prob ~first:100 ~count:70);
    (* non-recursive only: truncated proof sets at a recursive fixpoint are
       derivation-order dependent under top-k, so modes legitimately differ *)
    Alcotest.test_case "topkproofs-3: 60 non-recursive programs, all modes + columnar agree"
      `Slow
      (check_spec ~recursion:false "topkproofs-3" (Registry.Top_k_proofs 3) ~first:200
         ~count:60);
    (* incremental sessions: random assert/retract/query interleavings must
       stay bit-identical to a cold run on the final EDB at every query *)
    Alcotest.test_case "incr boolean: 40 interleavings ≡ cold run" `Slow
      (check_incr "incr-boolean" Registry.Boolean ~first:300 ~count:40);
    Alcotest.test_case "incr minmaxprob: 40 interleavings ≡ cold run" `Slow
      (check_incr "incr-minmaxprob" Registry.Max_min_prob ~first:400 ~count:40);
    Alcotest.test_case "incr topkproofs-3: 25 non-recursive interleavings ≡ cold run" `Slow
      (check_incr ~recursion:false "incr-topkproofs-3" (Registry.Top_k_proofs 3)
         ~first:500 ~count:25);
    Alcotest.test_case "incr boolean: 2-domain shared-plan sweep" `Slow
      (check_incr ~parallel:true "incr-boolean-par" Registry.Boolean ~first:600 ~count:24);
    (* Every provenance runs on the columnar engine by default, so these
       get bit-exact pairs too.  addmultprob's ⊕ is a clamped float sum
       over recursive rules (naive and semi-naive count derivations
       differently, so only same-mode pairs are a contract);
       difftopkproofsme-3 is the training provenance. *)
    Alcotest.test_case "addmultprob: 60 programs, columnar = tree-walker bit-exactly" `Slow
      (check_spec ~columnar_only:true "addmultprob" Registry.Add_mult_prob ~first:700 ~count:60);
    Alcotest.test_case
      "difftopkproofsme-3: 50 non-recursive programs, all modes + columnar agree" `Slow
      (check_spec ~recursion:false "difftopkproofsme-3" (Registry.Diff_top_k_proofs_me 3)
         ~first:800 ~count:50);
  ]
