(** Grammar-directed random Scallop programs and the differential oracle
    over evaluation modes.

    Programs are {e stratified-safe by construction}: relations are
    organized in levels, positive atoms may reference the current level
    (recursion) or below, while negation and aggregation reference strictly
    lower levels only — so every generated program compiles, stratifies and
    terminates under saturating provenances.  Samplers are deliberately
    never generated: they consume RNG state, which would make the
    naive/semi-naive comparison vacuous.  Recursion can likewise be
    disabled ([~recursion:false]): under {e approximate} provenances such
    as top-k proofs, the truncated proof sets reached at a recursive
    fixpoint legitimately depend on derivation order (naive and semi-naive
    both compute valid top-k approximations, but not always the same one),
    so the differential oracle is only sound there on non-recursive
    programs.

    The oracle ({!check_seed}) evaluates one generated program on the
    uncached tree-walker ({!Tree_walker}) by the naive lfp° and
    semi-naively, and demands identical outputs — tuples and recovered
    probabilities both.  The program then runs on the columnar executor,
    sequentially and across a 2-domain [Session.run_batch]; every run must
    match the oracle's semi-naive run {e bit-exactly} (each batch sample
    against a sequential oracle run under the config [Session.batch_config]
    gives it).  Failures name the seed so a run can be replayed with
    [check_seed ~seed] alone. *)

open Scallop_core
module Rng = Scallop_utils.Rng

let pick rng (arr : 'a array) : 'a = arr.(Rng.int rng (Array.length arr))

(* ---- generation ------------------------------------------------------------ *)

(* Domain constants are 0..3; arithmetic heads can push derived values a few
   steps past that, still finite. *)
let gen_edb rng buf name =
  Buffer.add_string buf (Fmt.str "type %s(i32, i32)@\n" name);
  let facts = ref [] in
  for a = 0 to 3 do
    for b = 0 to 3 do
      if Rng.float rng < 0.35 then
        facts :=
          Fmt.str "%.2f::(%d, %d)" (0.2 +. (0.8 *. Rng.float rng)) a b :: !facts
    done
  done;
  (* an empty fact set is a parse error; force one edge *)
  let facts = match !facts with [] -> [ "0.90::(0, 1)" ] | l -> List.rev l in
  Buffer.add_string buf (Fmt.str "rel %s = {%s}@\n" name (String.concat ", " facts))

(* One rule for [head]; [lower] are binary relations of strictly lower
   levels (never empty), [self] is [Some head] when a recursive rule is
   allowed (a non-recursive base rule must already exist). *)
let gen_rule rng ~head ~lower ~self buf =
  let low () = pick rng lower in
  match (self, Rng.int rng (match self with Some _ -> 7 | None -> 6)) with
  | Some s, 6 ->
      (* recursive join: the transitive-closure shape *)
      Buffer.add_string buf (Fmt.str "rel %s(x, z) = %s(x, y), %s(y, z)@\n" head s (low ()))
  | _, 0 -> Buffer.add_string buf (Fmt.str "rel %s(x, y) = %s(x, y)@\n" head (low ()))
  | _, 1 -> Buffer.add_string buf (Fmt.str "rel %s(x, y) = %s(y, x)@\n" head (low ()))
  | _, 2 ->
      Buffer.add_string buf
        (Fmt.str "rel %s(x, z) = %s(x, y), %s(y, z)@\n" head (low ()) (low ()))
  | _, 3 -> Buffer.add_string buf (Fmt.str "rel %s(x, y) = %s(x, y), x != y@\n" head (low ()))
  | _, 4 ->
      (* negation over strictly lower levels only *)
      Buffer.add_string buf
        (Fmt.str "rel %s(x, y) = %s(x, y), not %s(x, y)@\n" head (low ()) (low ()))
  | _, _ -> Buffer.add_string buf (Fmt.str "rel %s(x + 1, y) = %s(x, y)@\n" head (low ()))

(** Generate one program from a fresh RNG stream.  Returns the source and
    the list of queried relations.  [recursion:false] suppresses recursive
    rules (the RNG draw still happens, so seeds stay comparable). *)
let gen_program ?(recursion = true) rng : string * string list =
  let buf = Buffer.create 512 in
  let edb = [ "e0"; "e1" ] in
  List.iter (fun name -> gen_edb rng buf name) edb;
  let levels = 1 + Rng.int rng 2 in
  let queried = ref [] in
  let lower = ref (Array.of_list edb) in
  for level = 1 to levels do
    let n_rels = 1 + Rng.int rng 2 in
    let new_rels = ref [] in
    for r = 0 to n_rels - 1 do
      let head = Fmt.str "r%d_%d" level r in
      let recursive = Rng.float rng < 0.4 && recursion in
      (* base rule first (never recursive), then 0-2 more *)
      gen_rule rng ~head ~lower:!lower ~self:None buf;
      let extra = Rng.int rng 2 + if recursive then 1 else 0 in
      for _ = 1 to extra do
        gen_rule rng ~head ~lower:!lower ~self:(if recursive then Some head else None) buf
      done;
      new_rels := head :: !new_rels;
      queried := head :: !queried
    done;
    lower := Array.append !lower (Array.of_list !new_rels)
  done;
  (* one aggregation sink over the topmost relation (strictly lower level) *)
  let top = (pick rng !lower : string) in
  Buffer.add_string buf (Fmt.str "rel agg(n) = n := count(x, y: %s(x, y))@\n" top);
  queried := "agg" :: !queried;
  List.iter (fun q -> Buffer.add_string buf (Fmt.str "query %s@\n" q)) (List.rev !queried);
  (Buffer.contents buf, List.rev !queried)

(* ---- oracle ---------------------------------------------------------------- *)

(* Output relations as a canonical, comparable form. *)
let snapshot (r : Session.result) : (string * (Tuple.t * float) list) list =
  List.map
    (fun (pred, rows) ->
      (pred, List.map (fun (t, o) -> (t, Provenance.Output.prob o)) rows))
    r.Session.outputs

let snapshots_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (pa, la) (pb, lb) ->
         String.equal pa pb
         && List.length la = List.length lb
         && List.for_all2
              (fun (ta, xa) (tb, xb) ->
                Tuple.compare ta tb = 0 && Float.abs (xa -. xb) < 1e-9)
              la lb)
       a b

(* Bit-exact comparison — used where the contract is identity, not
   tolerance: stateful sessions against the cold run, and the columnar
   executor against the oracle's semi-naive run. *)
let snapshots_bit_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (pa, la) (pb, lb) ->
         String.equal pa pb
         && List.length la = List.length lb
         && List.for_all2
              (fun (ta, xa) (tb, xb) -> Tuple.compare ta tb = 0 && Float.equal xa xb)
              la lb)
       a b

(** Run the differential oracle for one (provenance, seed) pair.  [Ok] when
    every evaluation agrees; [Error msg] (naming the seed) otherwise.  With
    [~columnar_only:true] only the executor-vs-oracle pairs are checked:
    the oracle for provenances whose naive and semi-naive fixpoints
    legitimately differ (a non-idempotent ⊕ counts derivations per mode),
    where only bit-identity with the semi-naive oracle is a contract. *)
let check_seed ?(recursion = true) ?(columnar_only = false) ~(spec : Registry.spec)
    ~(base_rng : Rng.t) ~(seed : int) () : (unit, string) result =
  let rng = Rng.substream base_rng seed in
  let src, _queried = gen_program ~recursion rng in
  match Session.compile src with
  | exception Session.Error e ->
      Error
        (Fmt.str "seed %d: generated program failed to compile: %s@\n%s" seed
           (Session.error_string e) src)
  | compiled -> (
      let oracle ?naive ?config () =
        snapshot (Tree_walker.run ?naive ?config ~provenance:(Registry.create spec) compiled ())
      in
      match
        let semi = oracle () in
        let template = Interp.default_config () in
        let batch =
          Session.run_batch ~jobs:2 ~config:template
            ~provenance_of:(fun _ -> Registry.create spec)
            compiled
            [| []; [] |]
          |> Array.to_list
          |> List.mapi (fun i outcome ->
                 match outcome with
                 | Ok r ->
                     ( Fmt.str "columnar run_batch[%d] jobs=2" i,
                       snapshot r,
                       oracle ~config:(Session.batch_config template i) () )
                 | Error e ->
                     failwith
                       (Fmt.str "run_batch sample %d failed: %s" i (Session.error_string e)))
        in
        (* The columnar executor is checked {e bit-exactly} against the
           uncached semi-naive oracle, sequentially and across a 2-domain
           batch. *)
        let columnar_pairs =
          ( "columnar",
            snapshot (Session.run ~provenance:(Registry.create spec) compiled ()),
            semi )
          :: batch
        in
        (if columnar_only || snapshots_equal (oracle ~naive:true ()) semi then []
         else [ "semi-naive" ])
        @ List.filter_map
            (fun (name, csnap, tsnap) ->
              if snapshots_bit_equal csnap tsnap then None else Some name)
            columnar_pairs
      with
      | [] -> Ok ()
      | diverged ->
          Error
            (Fmt.str "seed %d: modes diverged from naive reference: %s@\n%s" seed
               (String.concat ", " diverged) src)
      | exception Failure msg -> Error (Fmt.str "seed %d: %s@\n%s" seed msg src)
      | exception Session.Error e ->
          Error
            (Fmt.str "seed %d: evaluation failed: %s@\n%s" seed
               (Session.error_string e) src))

(** Run seeds [first..first+count-1]; returns the failures. *)
let check_range ?(recursion = true) ?columnar_only ~spec ~master_seed ~first ~count () :
    string list =
  let base_rng = Rng.create master_seed in
  let failures = ref [] in
  for seed = first to first + count - 1 do
    match check_seed ~recursion ?columnar_only ~spec ~base_rng ~seed () with
    | Ok () -> ()
    | Error msg -> failures := msg :: !failures
  done;
  List.rev !failures

(* ---- incremental sessions: assert/retract/query interleavings --------------- *)

module Incr = Scallop_incr.Incr

(* Random dynamic facts over the generated EDB relations; the 0..4 domain
   overlaps the static 0..3 facts, so overlay-over-static tag merges and
   pure tag changes both occur. *)
let gen_dyn_fact rng : string * float * Tuple.t =
  let pred = if Rng.int rng 2 = 0 then "e0" else "e1" in
  let v n = Value.int Value.I32 n in
  ( pred,
    0.2 +. (0.8 *. Rng.float rng),
    Tuple.of_list [ v (Rng.int rng 5); v (Rng.int rng 5) ] )

(** Drive one random assert/retract/query interleaving against an
    incremental session and demand bit-identity with the cold-run oracle
    ({!Incr.run_cold}) at every query.  [Error msg] names the seed. *)
let check_incr_seed ?(recursion = true) ?(ops = 16) ~(spec : Registry.spec)
    ~(base_rng : Rng.t) ~(seed : int) () : (unit, string) result =
  let rng = Rng.substream base_rng seed in
  let src, _queried = gen_program ~recursion rng in
  match Incr.open_session ~spec src with
  | exception Session.Error e ->
      Error
        (Fmt.str "seed %d: generated program failed to open: %s@\n%s" seed
           (Session.error_string e) src)
  | t -> (
      let live = ref [] in
      let failure = ref None in
      let do_assert () =
        let pred, prob, tuple = gen_dyn_fact rng in
        Incr.assert_fact t ~pred ~prob tuple;
        live :=
          (pred, tuple)
          :: List.filter
               (fun (p, u) -> not (String.equal p pred && Tuple.compare u tuple = 0))
               !live
      in
      let check_query what =
        let q = Incr.query t in
        let c = Incr.run_cold t in
        if not (snapshots_bit_equal (snapshot q) (snapshot c)) then
          failure :=
            Some
              (Fmt.str "seed %d: %s: incremental result diverged from cold run@\n%s" seed
                 what src)
      in
      (try
         for op = 1 to ops do
           if Option.is_none !failure then
             match Rng.int rng 5 with
             | 0 | 1 | 2 -> do_assert ()
             | 3 -> (
                 match !live with
                 | [] -> do_assert ()
                 | l ->
                     let i = Rng.int rng (List.length l) in
                     let pred, tuple = List.nth l i in
                     Incr.retract_fact t ~pred tuple;
                     live := List.filteri (fun j _ -> j <> i) l)
             | _ -> check_query (Fmt.str "after op %d" op)
         done;
         if Option.is_none !failure then check_query "final state"
       with Session.Error e ->
         failure :=
           Some
             (Fmt.str "seed %d: session raised: %s@\n%s" seed (Session.error_string e) src));
      match !failure with None -> Ok () | Some msg -> Error msg)

(** Sequential seed sweep; returns the failures. *)
let check_incr_range ?(recursion = true) ~spec ~master_seed ~first ~count () : string list =
  let base_rng = Rng.create master_seed in
  let failures = ref [] in
  for seed = first to first + count - 1 do
    match check_incr_seed ~recursion ~spec ~base_rng ~seed () with
    | Ok () -> ()
    | Error msg -> failures := msg :: !failures
  done;
  List.rev !failures

(** The same sweep split across two domains running concurrently: sessions
    in both domains share the compiled-plan cache ([Session.compile_cached]
    is keyed by source hash), so this exercises multi-tenant sharing under
    parallelism.  [Rng.substream] derives child streams without advancing
    the parent, so concurrent derivation is safe and seeds stay stable. *)
let check_incr_parallel ?(recursion = true) ~spec ~master_seed ~first ~count () :
    string list =
  let base_rng = Rng.create master_seed in
  let sweep first count =
    List.init count (fun i -> first + i)
    |> List.filter_map (fun seed ->
           match check_incr_seed ~recursion ~spec ~base_rng ~seed () with
           | Ok () -> None
           | Error msg -> Some msg)
  in
  let half = count / 2 in
  let other = Domain.spawn (fun () -> sweep (first + half) (count - half)) in
  let mine = sweep first half in
  mine @ Domain.join other
