(** Benchmark harness regenerating every table and figure of the paper's
    evaluation (Sec. 6), per the experiment index in DESIGN.md.

    Usage: [dune exec bench/main.exe -- [EXPERIMENT ...] [--full]
              [--checkpoint-dir DIR] [--resume] [--clip-grad X]]

    With no arguments every experiment runs in quick mode (small synthetic
    datasets, few epochs — absolute numbers are below the paper's, but the
    {e shapes} it reports are reproduced: which method wins, by what rough
    factor, and where the blowups/crossovers are).  [--full] scales the
    datasets and epochs up.  [--checkpoint-dir] snapshots training state
    (per-task subdirectories) so a killed run restarted with [--resume]
    continues from the newest valid snapshot; [--clip-grad] bounds the
    global gradient norm on every optimizer step.  Experiments:
      table1 table2 accuracy provenances table4 table5 fig18 fig19 pacman
      micro batch budget resilience service incr durability replication server

    Each run prints paper-reported reference numbers alongside measured ones
    (marked [paper]); see EXPERIMENTS.md for the recorded comparison. *)

open Scallop_apps
module Mnist = Scallop_data.Mnist

let line () = Fmt.pr "%s@." (String.make 78 '-')

let section name =
  Fmt.pr "@.";
  line ();
  Fmt.pr "== %s@." name;
  line ()

type mode = {
  quick : bool;
  checkpoint_dir : string option;  (** --checkpoint-dir: snapshot training state here *)
  resume : bool;  (** --resume: keep existing snapshots instead of starting fresh *)
  clip_grad : float option;  (** --clip-grad: global gradient-norm bound *)
}

(* Benchmarks that double as correctness checks (batch determinism) bump
   this; the driver exits nonzero if any check failed. *)
let bench_failures = ref 0

let base_config (m : mode) =
  let c =
    if m.quick then
      { Common.default_config with Common.epochs = 3; n_train = 200; n_test = 100 }
    else { Common.default_config with Common.epochs = 6; n_train = 600; n_test = 200 }
  in
  { c with Common.clip_grad = m.clip_grad }

(* Per-task checkpoint policy under --checkpoint-dir: each training run gets
   its own subdirectory (snapshots embed model shapes, so runs must not share
   one).  Without --resume any existing snapshots are cleared first. *)
let checkpoint_for (m : mode) name : Common.checkpoint option =
  match m.checkpoint_dir with
  | None -> None
  | Some dir ->
      let sub = Filename.concat dir name in
      if not m.resume then Scallop_utils.Atomic_io.clear ~dir:sub;
      Some (Common.checkpoint sub)

(* ---- Table 1: LoC of modules -------------------------------------------------- *)

let find_repo_root () =
  let rec go dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  go (Sys.getcwd ())

let count_loc dir =
  let total = ref 0 in
  let rec walk d =
    if Sys.file_exists d && Sys.is_directory d then
      Array.iter
        (fun entry ->
          let path = Filename.concat d entry in
          if Sys.is_directory path then walk path
          else if Filename.check_suffix entry ".ml" then begin
            let ic = open_in path in
            (try
               while true do
                 let l = String.trim (input_line ic) in
                 if l <> "" then incr total
               done
             with End_of_file -> ());
            close_in ic
          end)
        (Sys.readdir d)
  in
  walk dir;
  !total

let bench_table1 _m =
  section "Table 1: LoC of core modules (paper: compiler 19K, runtime 16K, interpreter 2K, scallopy 4K — total 45K Rust)";
  match find_repo_root () with
  | None -> Fmt.pr "  (source tree not found; run from within the repository)@."
  | Some root ->
      let modules =
        [
          ("core language (lib/core)", "lib/core");
          ("decision diagrams (lib/bdd)", "lib/bdd");
          ("tensor/autodiff (lib/tensor)", "lib/tensor");
          ("nn + scallop layer (lib/nn)", "lib/nn");
          ("datasets (lib/data)", "lib/data");
          ("environments (lib/envs)", "lib/envs");
          ("applications (lib/apps)", "lib/apps");
          ("baselines (lib/baselines)", "lib/baselines");
          ("utilities (lib/utils)", "lib/utils");
          ("interpreter CLI (bin)", "bin");
          ("tests (test)", "test");
          ("benchmarks (bench)", "bench");
          ("examples (examples)", "examples");
        ]
      in
      let total = ref 0 in
      List.iter
        (fun (name, dir) ->
          let loc = count_loc (Filename.concat root dir) in
          total := !total + loc;
          Fmt.pr "  %-32s %6d LoC@." name loc)
        modules;
      Fmt.pr "  %-32s %6d LoC@." "TOTAL (OCaml)" !total

(* ---- Table 2: solution characteristics ----------------------------------------- *)

let bench_table2 _m =
  section "Table 2: Scallop solutions — interface relations, features (R/N/A), program LoC";
  Fmt.pr "  %-12s %-6s %-6s %-6s %5s  %s@." "Task" "Rec" "Neg" "Agg" "LoC" "Interface relations";
  List.iter
    (fun (task, relations, (r, n, a), loc) ->
      let b v = if v then "yes" else "-" in
      Fmt.pr "  %-12s %-6s %-6s %-6s %5d  %s@." task (b r) (b n) (b a) loc
        (String.concat ", " relations))
    Programs.table2;
  Fmt.pr "@.  (paper LoC: MNIST-R 2, HWF 39, Pathfinder 4, PacMan 31, CLUTRR 8, Mugen 46, CLEVR 51, VQAR 42)@."

(* ---- Fig. 15 / Table 3 / Fig. 17: accuracy vs baselines -------------------------- *)

let paper_note = "[paper]"

let bench_accuracy (m : mode) =
  section "Fig. 15 / Table 3 / Fig. 17: accuracy — Scallop vs baselines (synthetic data)";
  let config = base_config m in
  Fmt.pr "MNIST-R (paper: Scallop ≈ 97-99%%, DPL comparable but slow):@.";
  List.iter
    (fun task ->
      let checkpoint = checkpoint_for m ("mnist-" ^ Mnist.task_name task) in
      let r = Mnist_r.train_and_eval ?checkpoint config task in
      let b = Scallop_baselines.Neural.mnist_r config task in
      Fmt.pr "  %a@.  %a@." Common.pp_report r Common.pp_report b)
    [ Mnist.Sum2; Mnist.Sum3; Mnist.Sum4; Mnist.Less_than; Mnist.Not_3_or_4; Mnist.Count_3;
      Mnist.Count_3_or_4 ];
  Fmt.pr "@.HWF (paper: Scallop 96.7%%, NGS-m-BS 98.5%%, NGS-RL 3.4%% — the paper trains@.";
  Fmt.pr " 100 epochs on 10K formulas; quick mode uses a fraction, so expect the ordering@.";
  Fmt.pr " Scallop ≈ NGS-BS ≫ NGS-RL rather than the absolute numbers):@.";
  let hwf_config =
    { config with Common.epochs = (if m.quick then 8 else 15); n_train = (if m.quick then 400 else 1200) }
  in
  Fmt.pr "  %a@." Common.pp_report
    (Hwf_app.train_and_eval ?checkpoint:(checkpoint_for m "hwf") hwf_config);
  Fmt.pr "  %a@." Common.pp_report (Scallop_baselines.Ngs.train_bs hwf_config);
  Fmt.pr "  %a@." Common.pp_report (Scallop_baselines.Ngs.train_rl hwf_config);
  Fmt.pr "@.Pathfinder (paper: Scallop ~90%%, CNN ~86%%, S4 ~86-96%% %s):@." paper_note;
  Fmt.pr "  %a@." Common.pp_report (Pathfinder_app.train_and_eval config);
  Fmt.pr "  %a@." Common.pp_report (Scallop_baselines.Neural.pathfinder config);
  Fmt.pr "@.CLUTRR (paper: Scallop 91%% vs RoBERTa/GPT-3 ≤ 66%% %s):@." paper_note;
  let clutrr_config = { config with Common.n_train = max 80 (config.Common.n_train / 2) } in
  Fmt.pr "  %a@." Common.pp_report (Clutrr_app.train_and_eval clutrr_config);
  Fmt.pr "  CLUTRR-G rule learning (paper: learns composition facts from data):@.";
  let rl_config = { clutrr_config with Common.n_train = max 60 (clutrr_config.Common.n_train / 2) } in
  Fmt.pr "  %a@." Common.pp_report (Clutrr_app.train_and_eval_rule_learning rl_config);
  Fmt.pr "@.Mugen (paper: Scallop ≥ SDSC on video-text alignment/retrieval):@.";
  let mugen_r = Mugen_app.train_and_eval config in
  Fmt.pr "  %a@." Common.pp_report mugen_r;
  Fmt.pr "@.CLEVR (paper: Scallop 99.4%% vs NS-VQA 98.6%%, NSCL 98.9%%):@.";
  let clevr_config = { config with Common.n_train = max 100 (config.Common.n_train / 2) } in
  Fmt.pr "  %a@." Common.pp_report (Clevr_app.train_and_eval clevr_config);
  Fmt.pr "@.VQAR (paper: Scallop beats NMNs/LXMERT at high recall):@.";
  Fmt.pr "  %a@." Common.pp_report (Vqar_app.train_and_eval clevr_config)

(* ---- Fig. 16/17: provenance comparison -------------------------------------------- *)

let bench_provenances (m : mode) =
  section "Figs. 16-17: accuracy per provenance (dmmp / damp / dnmp / dtkp-k)";
  let config = { (base_config m) with Common.n_train = 150; n_test = 80 } in
  let provenances =
    [
      Scallop_core.Registry.Diff_max_min_prob;
      Scallop_core.Registry.Diff_add_mult_prob;
      Scallop_core.Registry.Diff_nand_mult_prob;
      Scallop_core.Registry.Diff_top_k_proofs_me 1;
      Scallop_core.Registry.Diff_top_k_proofs_me 3;
    ]
  in
  List.iter
    (fun task ->
      Fmt.pr "%s:@." (Mnist.task_name task);
      List.iter
        (fun spec ->
          let r = Mnist_r.train_and_eval { config with Common.provenance = spec } task in
          Fmt.pr "  %a@." Common.pp_report r)
        provenances)
    [ Mnist.Sum2; Mnist.Less_than; Mnist.Count_3 ];
  Fmt.pr "(paper: dtkp best on 6/9 tasks, damp on 2, dmmp on 1 — all close on easy tasks)@."

(* ---- Table 4: runtime per provenance ------------------------------------------------ *)

(** Train one epoch under [spec], measured on a small probe and scaled to
    the full epoch size.  A two-stage watchdog mirrors the paper's DPL
    timeout entries: a 2-sample pre-probe first; if that alone blows the
    budget, the extrapolated time is reported as a timeout without running
    the full probe (the paper reports DPL sum4 as "timeout" the same way). *)
let timed_epoch ?(sample_budget = 2.0) ~config ~task spec : string =
  let config = { config with Common.provenance = spec; Common.epochs = 1 } in
  let run n =
    let probe = { config with Common.n_train = n; Common.n_test = 2 } in
    let t0 = Scallop_utils.Monotonic.now () in
    (match task with
    | `Mnist t -> ignore (Mnist_r.train_and_eval probe t)
    | `Hwf -> ignore (Hwf_app.train_and_eval probe));
    (Scallop_utils.Monotonic.now () -. t0) /. float_of_int n
  in
  try
    let pre = run 2 in
    if pre > sample_budget then
      Fmt.str "%.0fs (timeout)" (pre *. float_of_int config.Common.n_train)
    else begin
      let sample_t = run (max 8 (config.Common.n_train / 8)) in
      Fmt.str "%.1fs" (sample_t *. float_of_int config.Common.n_train)
    end
  with _ -> "error"

let bench_table4 (m : mode) =
  section "Table 4: training time per epoch — provenances vs exact (DPL)";
  let config = { (base_config m) with Common.n_train = (if m.quick then 120 else 400) } in
  let provs =
    [
      ("dmmp", Scallop_core.Registry.Diff_max_min_prob);
      ("damp", Scallop_core.Registry.Diff_add_mult_prob);
      ("dtkp-3", Scallop_core.Registry.Diff_top_k_proofs_me 3);
      ("dtkp-10", Scallop_core.Registry.Diff_top_k_proofs_me 10);
      ("exact(DPL)", Scallop_core.Registry.Exact_prob);
    ]
  in
  let tasks =
    [
      ("sum2", `Mnist Mnist.Sum2);
      ("sum3", `Mnist Mnist.Sum3);
      ("sum4", `Mnist Mnist.Sum4);
      ("less-than", `Mnist Mnist.Less_than);
      ("not-3-or-4", `Mnist Mnist.Not_3_or_4);
      ("HWF", `Hwf);
    ]
  in
  Fmt.pr "  %-12s" "task";
  List.iter (fun (n, _) -> Fmt.pr " %12s" n) provs;
  Fmt.pr "@.";
  List.iter
    (fun (name, task) ->
      Fmt.pr "  %-12s" name;
      List.iter
        (fun (_, spec) ->
          Fmt.pr " %12s" (timed_epoch ~config ~task spec);
          Format.pp_print_flush Format.std_formatter ())
        provs;
      Fmt.pr "@.")
    tasks;
  Fmt.pr "@.(paper, sec/epoch: sum2 34/88/72/185 vs DPL 21430; sum4 34/154/77/4329 vs DPL timeout;@.";
  Fmt.pr " the shape to reproduce: dtkp-10 ≫ dtkp-3 and exact/DPL blows up combinatorially)@."

(* ---- Table 5: HWF data efficiency ----------------------------------------------------- *)

let bench_table5 (m : mode) =
  section "Table 5: HWF data efficiency (accuracy at 100% / 50% / 25% of training data)";
  let full_n = if m.quick then 240 else 800 in
  let update_budget = if m.quick then 2000 else 8000 in
  Fmt.pr "  %-10s %12s %12s %12s@." "%train" "Scallop dtkp-5" "NGS-BS" "NGS-RL";
  List.iter
    (fun frac ->
      let n = int_of_float (float_of_int full_n *. frac) in
      (* train each data fraction to the same gradient-update budget, as the
         paper trains every setting to convergence (100 epochs) *)
      let c = { (base_config m) with Common.n_train = n; Common.epochs = max 4 (update_budget / n) } in
      let scallop =
        Hwf_app.train_and_eval { c with Common.provenance = Scallop_core.Registry.Diff_top_k_proofs_me 5 }
      in
      let bs = Scallop_baselines.Ngs.train_bs c in
      let rl = Scallop_baselines.Ngs.train_rl c in
      Fmt.pr "  %-10.0f %11.1f%% %11.1f%% %11.1f%%@." (100.0 *. frac)
        (100.0 *. scallop.Common.accuracy) (100.0 *. bs.Common.accuracy)
        (100.0 *. rl.Common.accuracy);
      Format.pp_print_flush Format.std_formatter ())
    [ 1.0; 0.5; 0.25 ];
  Fmt.pr "@.(paper: Scallop 97.9/95.7/93.0, NGS-m-BS 98.5/95.7/93.3, NGS-RL ~3.5 throughout —@.";
  Fmt.pr " shape: Scallop degrades slowly like BS; RL never learns)@."

(* ---- Fig. 18: CLUTRR systematic generalization ------------------------------------------ *)

let bench_fig18 (m : mode) =
  section "Fig. 18: CLUTRR systematic generalizability (train k∈{2,3}, test k∈2..6)";
  let config =
    { (base_config m) with Common.n_train = (if m.quick then 100 else 300); n_test = 60 }
  in
  let test_ks = [ 2; 3; 4; 5; 6 ] in
  let scallop = Clutrr_app.systematic_generalization ~test_ks config in
  let neural = Scallop_baselines.Neural.clutrr_generalization ~test_ks config in
  Fmt.pr "  %-8s %10s %14s@." "test k" "Scallop" "neural (MLP)";
  List.iter2
    (fun (k, sa) (_, na) ->
      Fmt.pr "  %-8d %9.1f%% %13.1f%%@." k (100.0 *. sa) (100.0 *. na))
    scallop neural;
  Fmt.pr "@.(paper: Scallop degrades gently with k; RoBERTa/BiLSTM/GPT-3 collapse beyond the@.";
  Fmt.pr " training lengths)@."

(* ---- Fig. 19: Mugen interpretability ------------------------------------------------------ *)

let bench_fig19 (m : mode) =
  section "Fig. 19: Mugen interpretability — per-frame (action, mod) predictions";
  let config = base_config m in
  let rng = Scallop_utils.Rng.create config.Common.seed in
  let data = Scallop_data.Mugen.create ~seed:(config.Common.seed + 1) () in
  let model = Mugen_app.create_model ~rng ~dim:16 in
  let opt =
    Scallop_tensor.Optim.adam ~lr:config.Common.lr (Scallop_nn.Layers.Mlp.params model.Mugen_app.mlp)
  in
  (* train briefly on the alignment objective only *)
  let spec = Scallop_core.Registry.Diff_top_k_proofs 3 in
  for _ = 1 to config.Common.epochs do
    List.iter
      (fun (s : Scallop_data.Mugen.sample) ->
        let y = Mugen_app.score ~spec model ~frame_images:s.Scallop_data.Mugen.frame_images ~text:s.Scallop_data.Mugen.text in
        let target = Scallop_tensor.Nd.scalar (if s.Scallop_data.Mugen.aligned then 1.0 else 0.0) in
        let loss = Common.bce y (Scallop_tensor.Autodiff.const target) in
        opt.Scallop_tensor.Optim.zero_grad ();
        Scallop_tensor.Autodiff.backward loss;
        opt.Scallop_tensor.Optim.step ())
      (Scallop_data.Mugen.dataset data config.Common.n_train)
  done;
  (* report per-frame predictions on fresh videos *)
  let correct = ref 0 and total = ref 0 in
  List.iteri
    (fun i (s : Scallop_data.Mugen.sample) ->
      let preds = Mugen_app.frame_predictions model s.Scallop_data.Mugen.frame_images in
      if i < 3 then begin
        Fmt.pr "  video %d:@." i;
        List.iter2
          (fun (ta, tm) (pa, pm) ->
            Fmt.pr "    truth (%s,%s)  predicted (%s,%s)%s@." ta tm pa pm
              (if (ta, tm) = (pa, pm) then "" else "   <-- miss"))
          s.Scallop_data.Mugen.frames preds
      end;
      List.iter2
        (fun t p ->
          incr total;
          if t = p then incr correct)
        s.Scallop_data.Mugen.frames preds)
    (Scallop_data.Mugen.dataset data 40);
  Fmt.pr "  frame-level (action, mod) accuracy (never directly supervised): %.1f%%@."
    (100.0 *. float_of_int !correct /. float_of_int !total);
  let tvr = Mugen_app.retrieval_accuracy ~spec ~pools:(if m.quick then 10 else 30) data model in
  Fmt.pr "  text-to-video retrieval accuracy (pool of 8): %.1f%%@." (100.0 *. tvr)

(* ---- PacMan ---------------------------------------------------------------------------------- *)

let bench_pacman (m : mode) =
  section "PacMan-Maze (Sec. 2 / 6.3): success rate and training-episode efficiency";
  let episodes = if m.quick then 120 else 300 in
  let config =
    { (base_config m) with Common.provenance = Scallop_core.Registry.Diff_top_k_proofs 1; lr = 0.02 }
  in
  let r = Pacman_app.train_and_eval ~episodes ~eval_episodes:100 ~noise:0.25 config in
  Fmt.pr "  Scallop agent:  %d training episodes -> %.1f%% success (%.2fs/episode)@." episodes
    (100.0 *. r.Common.accuracy) r.Common.epoch_time;
  let dqn_acc, dqn_t = Scallop_baselines.Dqn.train_and_eval ~episodes ~eval_episodes:100 ~noise:0.25 ~seed:config.Common.seed () in
  Fmt.pr "  DQN baseline:   %d training episodes -> %.1f%% success (%.2fs/episode)@." episodes
    (100.0 *. dqn_acc) dqn_t;
  let dqn_more = if m.quick then 1000 else 5000 in
  let dqn_acc2, _ = Scallop_baselines.Dqn.train_and_eval ~episodes:dqn_more ~eval_episodes:100 ~noise:0.25 ~seed:config.Common.seed () in
  Fmt.pr "  DQN baseline:   %d training episodes -> %.1f%% success@." dqn_more (100.0 *. dqn_acc2);
  Fmt.pr "@.(paper: Scallop 50 episodes -> 99.4%%; DQN needs 50K episodes for 84.9%% —@.";
  Fmt.pr " shape: the symbolic agent is orders of magnitude more episode-efficient)@."

(* ---- measurement harness and baseline writer ------------------------------------------------- *)

(* Every perf section below times through [measure] or [measure_ab] and
   writes its baseline through [write_baseline]: one loop, one statistics
   module (the end-to-end benchmark's [E2e_core.Summary]) and one file
   layout, stamped with the host and the commit that produced it. *)

module Summary = E2e_core.Summary
module Monotonic = Scallop_utils.Monotonic
module Durable = Scallop_incr.Durable

(* Untimed calls ahead of the timed reps, so caches fill and lazy set-up
   finishes before anything is timed. *)
let warmup = 1

(** Wall-clock milliseconds, minor-heap words and words promoted to the
    major heap of each timed rep. *)
type reps = { ms : float list; words : float list; promoted : float list }

(* One timed call of [f], after a full major collection so that no rep pays
   for the garbage of the one before, and so that what [f] promotes repeats
   exactly from rep to rep. *)
let timed f =
  Gc.full_major ();
  let _, p0, _ = Gc.counters () in
  let t0 = Monotonic.now () in
  let w0 = Gc.minor_words () in
  let x = f () in
  (* read before the clock, whose boxed floats are no part of [f]'s allocation *)
  let words = Gc.minor_words () -. w0 in
  let ms = 1000.0 *. (Monotonic.now () -. t0) in
  let _, p1, _ = Gc.counters () in
  (x, { ms = [ ms ]; words = [ words ]; promoted = [ p1 -. p0 ] })

(* Reps given newest first, joined in the order they were taken. *)
let reps_of l =
  List.fold_left
    (fun acc r ->
      { ms = r.ms @ acc.ms; words = r.words @ acc.words; promoted = r.promoted @ acc.promoted })
    { ms = []; words = []; promoted = [] }
    l

(** [warmup] untimed calls of [f], then [reps] timed ones; their timings and
    the last call's value. *)
let measure ~reps f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let taken = ref [] and last = ref None in
  for _ = 1 to reps do
    (* the previous value is garbage before the next rep's collection *)
    last := None;
    let x, r = timed f in
    last := Some x;
    taken := r :: !taken
  done;
  (reps_of !taken, Option.get !last)

(** Timings of two arms measured pair by pair, and the median over pairs of
    the ratio of [b]'s time to [a]'s. *)
type ab = { a : reps; b : reps; ratio : float }

(** [warmup] untimed pairs, then [reps] timed pairs of one call of [a] and
    one of [b].  [a] goes first in odd pairs and [b] in even ones: timing
    one arm wholly after the other biases the later arm by host drift and
    by whatever the heap grew to meanwhile.  [before] runs untimed ahead of
    every pair, [check] after it on the values of [a] and [b]. *)
let measure_ab ?(before = ignore) ?(check = fun _ _ -> ()) ~reps a b =
  let ta = ref [] and tb = ref [] in
  for i = 1 - warmup to reps do
    before ();
    let (x, ra), (y, rb) =
      if i land 1 = 1 then
        let ra = timed a in
        (ra, timed b)
      else
        let rb = timed b in
        (timed a, rb)
    in
    check x y;
    if i >= 1 then begin
      ta := ra :: !ta;
      tb := rb :: !tb
    end
  done;
  let a = reps_of !ta and b = reps_of !tb in
  { a; b; ratio = Summary.median (List.map2 ( /. ) b.ms a.ms) }

(* Row fields are rendered JSON values. *)
let jint = string_of_int
let jnum ?(dp = 3) x = Printf.sprintf "%.*f" dp x
let jstr s = Printf.sprintf "%S" s
let jbool = string_of_bool

(** Median and quartiles of a timing in milliseconds, as the row fields
    [prefix ^ "median_ms"], [prefix ^ "q1_ms"] and [prefix ^ "q3_ms"]. *)
let spread ?(prefix = "") ms =
  let q1, q3 = Summary.quartiles ms in
  [
    (prefix ^ "median_ms", jnum (Summary.median ms));
    (prefix ^ "q1_ms", jnum q1);
    (prefix ^ "q3_ms", jnum q3);
  ]

let cores = Domain.recommended_domain_count ()

let commit =
  lazy
    (match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
        let s = try input_line ic with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if s = "" then "unknown" else s)

(** Write the baseline [file] in the current directory: the host
    fingerprint, [rows] as its "benchmarks" array, then the [summary]
    fields. *)
let write_baseline ?(summary = []) file rows =
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  let top kv = "  " ^ field kv in
  let row r = "    {" ^ String.concat ", " (List.map field r) ^ "}" in
  let fingerprint =
    [
      ("cores", jint cores);
      ("ocaml", jstr Sys.ocaml_version);
      ("commit", jstr (Lazy.force commit));
    ]
  in
  let body =
    List.map top fingerprint
    @ [ "  \"benchmarks\": [\n" ^ String.concat ",\n" (List.map row rows) ^ "\n  ]" ]
    @ List.map top summary
  in
  let oc = open_out file in
  output_string oc ("{\n" ^ String.concat ",\n" body ^ "\n}\n");
  close_out oc;
  Fmt.pr "@.  wrote %s (%d rows)@." file (List.length rows)

(* A failed gate or correctness check: reported, and the driver exits
   nonzero at the end. *)
let fail fmt =
  Fmt.kstr
    (fun msg ->
      incr bench_failures;
      Fmt.epr "  FAIL: %s@." msg)
    fmt

(* ---- shared fixtures ------------------------------------------------------------------------- *)

(* Transitive closure: the recursive workload most sections time. *)
let tc_src = {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}

let agg_src = {|type item(i32, i32)
rel total(g, s) = s := sum(x: item(g, x))
rel sizes(g, n) = n := count(x: item(g, x))
query total
query sizes|}

let pair a b = Scallop_core.(Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ])

(* The chain 0 -> 1 -> ... -> n, every edge at probability 0.9. *)
let chain_facts n =
  [ ("edge", List.init n (fun i -> (Scallop_core.Provenance.Input.prob 0.9, pair i (i + 1)))) ]

(* Bit-identity of two results: the same relations, tuples and output tags
   (floats compared exactly), and the same fact ids. *)
let same_result (a : Scallop_core.Session.result) (b : Scallop_core.Session.result) =
  Stdlib.compare a.outputs b.outputs = 0 && Stdlib.compare a.fact_ids b.fact_ids = 0

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* A fresh, empty path under the temp directory for on-disk state. *)
let scratch name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scallop-bench-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf d;
  d

(* Durable session "b" over [tc_src], holding the chain 0 -> ... -> n. *)
let durable_chain mgr n =
  ignore (Durable.open_session mgr ~sid:"b" tc_src);
  for i = 0 to n - 1 do
    Durable.assert_fact mgr ~sid:"b" ~pred:"edge" (pair i (i + 1))
  done

(* One update round on that session: assert the next chain edge, then
   query. *)
let durable_round mgr n =
  let tip = ref n in
  fun () ->
    Durable.assert_fact mgr ~sid:"b" ~pred:"edge" (pair !tip (!tip + 1));
    incr tip;
    Durable.query mgr ~sid:"b" ()

(* ---- micro-benchmarks (Appendix B tables 6-8) -------------------------------------------------- *)

let rec bench_micro (m : mode) =
  section "Appendix B (Tables 6-8): provenance operation micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let mmp_ops =
    Test.make ~name:"mmp add/mult/negate"
      (Staged.stage (fun () ->
           let open Scallop_core.Prov_discrete.Max_min_prob in
           ignore (negate (mult (add 0.4 0.7) 0.6))))
  in
  let dual = Scallop_core.Dual.var 0 0.5
  and dual2 = Scallop_core.Dual.var 1 0.25 in
  let damp_ops =
    Test.make ~name:"damp dual add/mult"
      (Staged.stage (fun () -> ignore (Scallop_core.Dual.mul (Scallop_core.Dual.add dual dual2) dual)))
  in
  let env = Scallop_core.Formula.env (fun v -> 0.1 +. (0.08 *. float_of_int (v mod 10))) in
  let f1 = [ Scallop_core.Formula.proof_of_literals [ (0, true); (1, true) ];
             Scallop_core.Formula.proof_of_literals [ (2, true) ] ] in
  let f2 = [ Scallop_core.Formula.proof_of_literals [ (3, true); (1, false) ] ] in
  let dtkp_conj =
    Test.make ~name:"dtkp-3 conj_k"
      (Staged.stage (fun () -> ignore (Scallop_core.Formula.conj_k env 3 f1 f2)))
  in
  let dtkp_neg =
    Test.make ~name:"dtkp-3 neg_k (cnf2dnf)"
      (Staged.stage (fun () -> ignore (Scallop_core.Formula.neg_k env 3 f1)))
  in
  (* The call shape of most ∨k calls in sum3 training: three kept proofs of
     three literals meet one new proof that enters the top 3. *)
  let dtkp_disj =
    let proof lits = Scallop_core.Formula.proof_of_literals (List.map (fun v -> (v, true)) lits) in
    let kept = Scallop_core.Formula.top_k env 3 [ proof [ 9; 18; 27 ]; proof [ 8; 17; 26 ]; proof [ 5; 14; 23 ] ] in
    let fresh = Scallop_core.Formula.top_k env 3 [ proof [ 7; 16; 24 ] ] in
    Test.make ~name:"dtkp-3 disj_k (3+1)"
      (Staged.stage (fun () -> ignore (Scallop_core.Formula.disj_k env 3 kept fresh)))
  in
  let wmc =
    Test.make ~name:"WMC via BDD (5 proofs, 8 vars)"
      (Staged.stage
         (let f =
            List.init 5 (fun i ->
                Scallop_core.Formula.proof_of_literals
                  [ (i, true); ((i + 3) mod 8, true); ((i + 5) mod 8, false) ])
          in
          fun () -> ignore (Scallop_core.Wmc.prob ~env f)))
  in
  let compiled = Scallop_core.Session.compile tc_src in
  let facts =
    let rng = Scallop_utils.Rng.create 5 in
    [
      ( "edge",
        List.init 30 (fun _ ->
            ( Scallop_core.Provenance.Input.prob (Scallop_utils.Rng.float rng),
              pair (Scallop_utils.Rng.int rng 10) (Scallop_utils.Rng.int rng 10) )) );
    ]
  in
  let fixpoint =
    Test.make ~name:"transitive closure (30 edges, mmp, semi-naive)"
      (Staged.stage (fun () ->
           ignore
             (Scallop_core.Session.run
                ~provenance:(Scallop_core.Registry.create Scallop_core.Registry.Max_min_prob)
                compiled ~facts ())))
  in
  let tests = [ mmp_ops; damp_ops; dtkp_conj; dtkp_disj; dtkp_neg; wmc; fixpoint ] in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) i raw)
        instances
    in
    let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
    Hashtbl.iter
      (fun _metric tbl ->
        Hashtbl.iter
          (fun name ols ->
            match Analyze.OLS.estimates ols with
            | Some [ t ] -> Fmt.pr "  %-44s %10.1f ns/op@." name t
            | _ -> Fmt.pr "  %-44s (no estimate)@." name)
          tbl)
      results
  in
  List.iter (fun t -> benchmark (Test.make_grouped ~name:"g" [ t ])) tests;
  Fmt.pr "@.(Appendix B complexity: mmp O(1), damp O(n), dtkp conj O(n^2 k^2), neg/WMC exponential@.";
  Fmt.pr " in the worst case — the measured ordering above should respect that hierarchy)@.";
  bench_interp m

(* ---- interpreter workloads (BENCH_interp.json) ------------------------------------------------- *)

(* End-to-end SclRam interpreter throughput on the two shapes every later
   perf PR is judged against: a deep recursive fixpoint (transitive closure
   on a chain, maximizing semi-naive iteration count) and a wide aggregation
   (sum + count over many groups).  Each workload runs on the executor
   under discrete, minmaxprob and top-k-proof provenances, most of them
   with one more row on the uncached tree-walker test oracle
   ([Scallop_fuzz.Tree_walker], "columnar": false).  Dense recursion over
   seeded random graphs ("reach-random", a closure that re-derives most of
   its tuples) gets one executor row and one oracle row per provenance; a
   last row pair times MNIST sum3 under difftopkproofsme-3 on the executor
   and the oracle, alternating (the training path).  The measurements land
   in BENCH_interp.json. *)
and bench_interp (m : mode) =
  section "Interpreter workloads: fixpoint + aggregation throughput (writes BENCH_interp.json)";
  let open Scallop_core in
  let agg_facts ~groups ~per_group =
    let rng = Scallop_utils.Rng.create 9 in
    [
      ( "item",
        List.concat
          (List.init groups (fun g ->
               List.init per_group (fun _ ->
                   ( Provenance.Input.prob (0.5 +. (0.5 *. Scallop_utils.Rng.float rng)),
                     pair g (Scallop_utils.Rng.int rng 10) )))) );
    ]
  in
  (* [prov ()] makes the fresh provenance instance each run needs.  A
     [columnar] run is a [Session.run]; the other runs the uncached oracle
     on the same input database. *)
  let run_once ~columnar ~prov compiled facts () =
    if columnar then Session.run ~provenance:(prov ()) compiled ~facts ()
    else Scallop_fuzz.Tree_walker.run ~provenance:(prov ()) compiled ~facts ()
  in
  let tuples (r : Session.result) =
    List.fold_left (fun acc (_, rows) -> acc + List.length rows) 0 r.Session.outputs
  in
  let rows = ref [] in
  (* (name, provenance, columnar) -> (mean seconds, minor words per tuple) *)
  let measured = Hashtbl.create 32 in
  let runs = if m.quick then 3 else 8 in
  let registry spec () = Registry.create spec in
  (* Allocation profile: minor-heap words per derived output tuple, the
     median over the timed reps.  The executor's rows should sit well below
     the oracle's — flat columns replace one boxed tuple + map node per
     derivation. *)
  let add_row ~name ~prov_name ~n ~columnar ~tuples (r : reps) =
    let mean = Summary.mean r.ms /. 1000.0 in
    let words = if tuples = 0 then 0.0 else Summary.median r.words /. float_of_int tuples in
    Hashtbl.replace measured (name, prov_name, columnar) (mean, words);
    Fmt.pr "  %-24s %-12s n=%-5d columnar=%-5b %9.3f ms %10.2f ops/sec %9.1f w/tuple@." name
      prov_name n columnar (1000.0 *. mean) (1.0 /. mean) words;
    rows :=
      ([
         ("name", jstr name);
         ("provenance", jstr prov_name);
         ("n", jint n);
         ("columnar", jbool columnar);
         ("runs", jint (List.length r.ms));
         ("mean_ms", jnum (1000.0 *. mean));
         ("ops_per_sec", jnum (1.0 /. mean));
         ("minor_words_per_tuple", jnum ~dp:1 words);
       ]
      @ spread r.ms)
      :: !rows
  in
  (* the executor, then (with [~oracle]) the uncached oracle *)
  let bench_rows ?(oracle = false) ~name ~prov_name ~prov ~n compiled facts =
    List.iter
      (fun columnar ->
        let r, result = measure ~reps:runs (run_once ~columnar ~prov compiled facts) in
        add_row ~name ~prov_name ~n ~columnar ~tuples:(tuples result) r)
      (true :: (if oracle then [ false ] else []))
  in
  let mean_of key = Option.map fst (Hashtbl.find_opt measured key) in
  let tc = Session.compile tc_src in
  let agg = Session.compile agg_src in
  bench_rows ~oracle:true ~name:"transitive-closure-chain" ~prov_name:"boolean"
    ~prov:(registry Registry.Boolean) ~n:500 tc (chain_facts 500);
  bench_rows ~oracle:true ~name:"transitive-closure-chain" ~prov_name:"minmaxprob"
    ~prov:(registry Registry.Max_min_prob) ~n:500 tc (chain_facts 500);
  (* TC-120 under top-k proofs, three configurations: the guided best-first
     operators with the cross-iteration WMC cache (the default), guided
     without the cache, and the eager reference operators without the cache
     (the historic configuration every speedup claim is measured against).
     The repeated-run methodology means the cached rows report warm-cache
     performance — exactly the fixpoint-iteration / training-step reuse the
     cache exists for. *)
  Wmc.clear_cache ();
  bench_rows ~name:"transitive-closure-chain" ~prov_name:"topkproofs-3"
    ~prov:(registry (Registry.Top_k_proofs 3)) ~n:120 tc (chain_facts 120);
  Wmc.set_cache_enabled false;
  bench_rows ~name:"transitive-closure-chain" ~prov_name:"topkproofs-3-nowmccache"
    ~prov:(registry (Registry.Top_k_proofs 3)) ~n:120 tc (chain_facts 120);
  let eager_topk3 () : Provenance.t =
    let module M =
      Scallop_fuzz.Tree_walker.Top_k_proofs_eager
        (struct
          let k = 3
        end)
        ()
    in
    (module M)
  in
  bench_rows ~name:"transitive-closure-chain" ~prov_name:"topkproofseager-3-nowmccache"
    ~prov:eager_topk3 ~n:120 tc (chain_facts 120);
  Wmc.set_cache_enabled true;
  (* computed here, before the aggregation workload measures another
     topkproofs-3 row under the same key *)
  let speedup =
    match
      ( mean_of ("transitive-closure-chain", "topkproofseager-3-nowmccache", true),
        mean_of ("transitive-closure-chain", "topkproofs-3", true) )
    with
    | Some eager, Some cached when cached > 0.0 -> eager /. cached
    | _ -> 0.0
  in
  bench_rows ~oracle:true ~name:"aggregation-sum-count" ~prov_name:"boolean"
    ~prov:(registry Registry.Boolean) ~n:2000 agg (agg_facts ~groups:50 ~per_group:40);
  bench_rows ~oracle:true ~name:"aggregation-sum-count" ~prov_name:"minmaxprob"
    ~prov:(registry Registry.Max_min_prob) ~n:2000 agg (agg_facts ~groups:50 ~per_group:40);
  bench_rows ~oracle:true ~name:"aggregation-sum-count" ~prov_name:"topkproofs-3"
    ~prov:(registry (Registry.Top_k_proofs 3)) ~n:60 agg (agg_facts ~groups:6 ~per_group:10);
  (* Dense recursion: reachability over seeded random graphs in the shapes
     of the one-shot reach family (60 nodes, 150 edges) and of a session
     query (40 nodes, 100 edges).  Unlike the chains, these closures
     re-derive most path tuples, so each fixpoint round normalizes
     duplicate-heavy join output and probes the relation for tuples it
     already holds. *)
  let reach =
    Session.compile
      {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
rel reach(b) = path(0, b)
query reach|}
  in
  let random_graph ~seed ~nodes ~edges =
    let rng = Scallop_utils.Rng.create seed in
    let seen = Hashtbl.create (2 * edges) in
    let rec pick acc k =
      if k = 0 then List.rev acc
      else
        let a = Scallop_utils.Rng.int rng nodes and b = Scallop_utils.Rng.int rng nodes in
        if a = b || Hashtbl.mem seen (a, b) then pick acc k
        else begin
          Hashtbl.add seen (a, b) ();
          (* p >= 0.5: boolean keeps every edge *)
          let p = 0.5 +. (0.45 *. Scallop_utils.Rng.float rng) in
          pick ((Provenance.Input.prob p, pair a b) :: acc) (k - 1)
        end
    in
    [ ("edge", pick [] edges) ]
  in
  List.iter
    (fun (nodes, edges) ->
      let facts = random_graph ~seed:(nodes + edges) ~nodes ~edges in
      let name = Fmt.str "reach-random-%dx%d" nodes edges in
      bench_rows ~oracle:true ~name ~prov_name:"boolean" ~prov:(registry Registry.Boolean)
        ~n:edges reach facts;
      bench_rows ~oracle:true ~name ~prov_name:"minmaxprob"
        ~prov:(registry Registry.Max_min_prob) ~n:edges reach facts)
    [ (60, 150); (40, 100) ];
  (* The training path's A/B: MNIST sum3 (Table 4) under difftopkproofsme-3,
     the provenance [train-sum3] trains with, the oracle against the
     executor. *)
  let sum3 = Session.compile Scallop_apps.Programs.mnist_sum3 in
  let digit_facts =
    let rng = Scallop_utils.Rng.create 5 in
    List.mapi
      (fun g pred ->
        ( pred,
          List.init 10 (fun d ->
              ( Provenance.Input.prob ~me_group:g (0.02 +. Scallop_utils.Rng.float rng),
                Tuple.of_list [ Value.int Value.U32 d ] )) ))
      [ "digit_1"; "digit_2"; "digit_3" ]
  in
  let sum3_prov = registry (Registry.Diff_top_k_proofs_me 3) in
  let sum3_once columnar = run_once ~columnar ~prov:sum3_prov sum3 digit_facts in
  let ab = measure_ab ~reps:(if m.quick then 200 else 600) (sum3_once false) (sum3_once true) in
  let sum3_tuples = tuples (sum3_once true ()) in
  List.iter
    (fun (columnar, r) ->
      add_row ~name:"mnist-sum3-ab" ~prov_name:"difftopkproofsme-3" ~n:30 ~columnar
        ~tuples:sum3_tuples r)
    [ (false, ab.a); (true, ab.b) ];
  Fmt.pr "  mnist-sum3 difftopkproofsme-3 columnar/oracle time: %.3f (median of %d pairs)@."
    ab.ratio (List.length ab.a.ms);
  Fmt.pr "@.  TC-120 topkproofs-3 guided+cache vs eager (historic): %.2fx@." speedup;
  (* Columnar gate: the TC-500 boolean columnar row may allocate at most
     1.25x the minor words per tuple it did when the gate was set (11.6).
     Allocation counts repeat exactly from run to run, so the gate cannot
     pass or fail on timing noise.  A shortfall is a regression in the batch
     operators and makes the bench exit nonzero.  The speedup over the
     uncached tree-walker oracle is printed for information only: a ratio
     against a test oracle is no gate. *)
  let col_words_gate = 1.25 *. 11.6 in
  let col_words =
    match Hashtbl.find_opt measured ("transitive-closure-chain", "boolean", true) with
    | Some (_, words) -> words
    | None -> Float.infinity
  in
  let col_speedup =
    match
      ( mean_of ("transitive-closure-chain", "boolean", false),
        mean_of ("transitive-closure-chain", "boolean", true) )
    with
    | Some row, Some col when col > 0.0 -> row /. col
    | _ -> 0.0
  in
  if not (col_words <= col_words_gate) then
    fail "TC-500 boolean columnar %.1f minor words/tuple > %.1f" col_words col_words_gate;
  Fmt.pr "  TC-500 boolean columnar: %.1f minor words/tuple (gate <= %.1f) %s@." col_words
    col_words_gate
    (if col_words <= col_words_gate then "ok" else "VIOLATION");
  Fmt.pr "  TC-500 boolean columnar vs oracle (uncached): %.2fx (information only)@." col_speedup;
  write_baseline "BENCH_interp.json" (List.rev !rows)
    ~summary:
      [
        ("tc120_topk_speedup_guided_cache_vs_eager", jnum speedup);
        ("tc500_columnar_speedup", jnum col_speedup);
        ("tc500_columnar_minor_words_per_tuple", jnum ~dp:1 col_words);
        ("tc500_columnar_minor_words_gate", jnum ~dp:1 col_words_gate);
        ("mnist_sum3_columnar_vs_tree", jnum ab.ratio);
      ]

(* ---- parallel batch runtime (BENCH_batch.json) ------------------------------------------------- *)

(* Domain-scaling curve for [Session.run_batch] on the batched TC /
   aggregation workloads: one compiled plan, a batch of per-sample fact
   sets, executed at 1/2/4/8 domains.  A worker count above the host's
   cores is no scaling claim, so that row records "skipped" and no
   timings.  Every row, skipped or not, compares a parallel run
   tuple-for-tuple (probabilities included) against the sequential
   reference, so this benchmark doubles as a correctness check — any
   divergence bumps [bench_failures] and the driver exits nonzero. *)
let bench_batch (m : mode) =
  section "Parallel batch runtime: domain-scaling curve (writes BENCH_batch.json)";
  let open Scallop_core in
  let batch_size = if m.quick then 12 else 24 in
  let runs = if m.quick then 3 else 6 in
  let jobs_curve = [ 1; 2; 4; 8 ] in
  let base_rng = Scallop_utils.Rng.create 7 in
  (* Per-sample fact sets drawn from independent substreams: the batch is a
     realistic minibatch (same program, different inputs). *)
  let chain_sample n i =
    let rng = Scallop_utils.Rng.substream base_rng i in
    [
      ( "edge",
        List.init n (fun j ->
            (Provenance.Input.prob (0.5 +. (0.5 *. Scallop_utils.Rng.float rng)), pair j (j + 1)))
      );
    ]
  in
  let agg_sample ~groups ~per_group i =
    let rng = Scallop_utils.Rng.substream base_rng (1000 + i) in
    [
      ( "item",
        List.concat
          (List.init groups (fun g ->
               List.init per_group (fun _ ->
                   ( Provenance.Input.prob (0.5 +. (0.5 *. Scallop_utils.Rng.float rng)),
                     pair g (Scallop_utils.Rng.int rng 10) )))) );
    ]
  in
  let rows = ref [] in
  let bench_rows ~name ~prov_name ~spec ~n compiled batch =
    (* Sequential reference through the documented equivalence: a plain map
       of [Session.run] under [batch_config]. *)
    let reference =
      Array.mapi
        (fun i facts ->
          Session.run
            ~config:(Session.batch_config (Interp.default_config ()) i)
            ~provenance:(Registry.create spec) compiled ~facts ())
        batch
    in
    let seq_mean = ref 0.0 in
    List.iter
      (fun jobs ->
        let run () =
          Session.run_batch_exn ~jobs ~config:(Interp.default_config ())
            ~provenance_of:(fun _ -> Registry.create spec)
            compiled batch
        in
        let deterministic out =
          let ok =
            Array.length out = Array.length reference && Array.for_all2 same_result out reference
          in
          if not ok then fail "%s/%s at jobs=%d differs from sequential" name prov_name jobs;
          ok
        in
        let key =
          [
            ("workload", jstr name);
            ("provenance", jstr prov_name);
            ("n", jint n);
            ("batch", jint batch_size);
            ("jobs", jint jobs);
          ]
        in
        if jobs > cores then begin
          let ok = deterministic (run ()) in
          Fmt.pr "  %-24s %-12s n=%-4d batch=%-3d jobs=%d skipped (%d cores)@." name prov_name n
            batch_size jobs cores;
          rows := (key @ [ ("skipped", jbool true); ("deterministic", jbool ok) ]) :: !rows
        end
        else begin
          let r, out = measure ~reps:runs run in
          let ok = deterministic out in
          let mean = Summary.mean r.ms /. 1000.0 in
          if jobs = 1 then seq_mean := mean;
          let speedup = if mean > 0.0 then !seq_mean /. mean else 0.0 in
          Fmt.pr "  %-24s %-12s n=%-4d batch=%-3d jobs=%d %9.2f ms %8.1f samples/s  x%.2f@." name
            prov_name n batch_size jobs (1000.0 *. mean)
            (float_of_int batch_size /. mean)
            speedup;
          rows :=
            (key
            @ [
                ("runs", jint runs);
                ("mean_ms", jnum (1000.0 *. mean));
                ("samples_per_sec", jnum (float_of_int batch_size /. mean));
                ("speedup_vs_seq", jnum speedup);
              ]
            @ spread r.ms
            @ [ ("deterministic", jbool ok) ])
            :: !rows
        end)
      jobs_curve
  in
  let tc = Session.compile tc_src in
  let agg = Session.compile agg_src in
  let tc_n = if m.quick then 120 else 250 in
  bench_rows ~name:"transitive-closure-chain" ~prov_name:"minmaxprob" ~spec:Registry.Max_min_prob
    ~n:tc_n tc
    (Array.init batch_size (chain_sample tc_n));
  bench_rows ~name:"transitive-closure-chain" ~prov_name:"topkproofs-2"
    ~spec:(Registry.Top_k_proofs 2) ~n:60 tc
    (Array.init batch_size (chain_sample 60));
  bench_rows ~name:"aggregation-sum-count" ~prov_name:"minmaxprob" ~spec:Registry.Max_min_prob
    ~n:1600 agg
    (Array.init batch_size (agg_sample ~groups:40 ~per_group:40));
  write_baseline "BENCH_batch.json" (List.rev !rows)

(* ---- resource governance (BENCH_budget.json) --------------------------------------------------- *)

(* Two questions about the budget layer (see lib/core/budget.ml):
   1. Overhead: what do the cooperative checks cost on the 500-chain TC
      workload when a watched budget is active but never exhausted, vs. the
      default (unwatched) config?  The amortized design targets <= 5%; the
      overhead is the median of the per-pair governed/default ratios.
   2. Enforcement latency: how long after its 1-second deadline does a
      divergent program actually stop?  Must be < 2x the deadline, in both
      sequential and jobs=2 batched execution; a violation bumps
      [bench_failures] and the driver exits nonzero. *)
let bench_budget (m : mode) =
  section "Resource governance: budget overhead + enforcement latency (writes BENCH_budget.json)";
  let open Scallop_core in
  let rows = ref [] in
  let runs = if m.quick then 3 else 8 in
  (* -- overhead on the 500-chain TC benchmark -------------------------------- *)
  let tc = Session.compile tc_src in
  let facts = chain_facts 500 in
  let run ~budget ~spec () =
    let config = { (Interp.default_config ()) with Interp.budget } in
    Session.run ~config ~provenance:(Registry.create spec) tc ~facts ()
  in
  (* A watched-but-never-exhausted budget: every axis active, all generous. *)
  let watched =
    Budget.make ~timeout:3600.0 ~max_tuples:max_int ~max_node_evals:max_int ()
  in
  List.iter
    (fun (prov_name, spec) ->
      let ab =
        measure_ab ~reps:runs (run ~budget:Budget.default ~spec) (run ~budget:watched ~spec)
      in
      let base = Summary.mean ab.a.ms and governed = Summary.mean ab.b.ms in
      let overhead_pct = 100.0 *. (ab.ratio -. 1.0) in
      Fmt.pr "  tc-500 %-12s default %8.2f ms  governed %8.2f ms  overhead %+.2f%%@." prov_name
        base governed overhead_pct;
      rows :=
        ([
           ("name", jstr "tc-500-overhead");
           ("provenance", jstr prov_name);
           ("runs", jint runs);
           ("base_ms", jnum base);
           ("governed_ms", jnum governed);
           ("overhead_pct", jnum ~dp:2 overhead_pct);
         ]
        @ spread ~prefix:"base_" ab.a.ms
        @ spread ~prefix:"governed_" ab.b.ms)
        :: !rows)
    [ ("boolean", Registry.Boolean); ("minmaxprob", Registry.Max_min_prob) ];
  (* -- enforcement latency on a divergent program ---------------------------- *)
  let divergent_src =
    {|type seed(i32)
rel n(x) = seed(x)
rel n(x + 1) = n(x)
query n|}
  in
  let div = Session.compile divergent_src in
  let seed_facts =
    [ ("seed", [ (Provenance.Input.none, Tuple.of_list [ Value.int Value.I32 0 ]) ]) ]
  in
  let deadline = 1.0 in
  (* Deadline-only budget: lift the iteration cap so the wall clock, not the
     10k-iteration guardrail, is what stops the program. *)
  let budget = { Budget.unlimited with Budget.timeout = Some deadline } in
  let config () = { (Interp.default_config ()) with Interp.budget = budget } in
  let check ~name outcome elapsed =
    let stopped_by_deadline =
      match outcome with
      | Error (Exec_error.Budget_exceeded { kind = Exec_error.Deadline; _ }) -> true
      | _ -> false
    in
    let within = elapsed < 2.0 *. deadline in
    if not (stopped_by_deadline && within) then
      fail "%s stopped_by_deadline=%b elapsed=%.2fs" name stopped_by_deadline elapsed;
    Fmt.pr "  %-28s deadline=%.1fs stopped in %6.2fs %s@." name deadline elapsed
      (if stopped_by_deadline && within then "ok" else "VIOLATION");
    rows :=
      [
        ("name", jstr name);
        ("deadline_s", jnum ~dp:1 deadline);
        ("stopped_s", jnum elapsed);
        ("typed_deadline_error", jbool stopped_by_deadline);
        ("within_2x", jbool within);
      ]
      :: !rows
  in
  let t0 = Monotonic.now () in
  let outcome =
    try
      ignore
        (Session.run ~config:(config ()) ~provenance:(Registry.create Registry.Boolean) div
           ~facts:seed_facts ());
      Ok ()
    with Session.Error e -> Error e
  in
  check ~name:"divergent-sequential" outcome (Monotonic.now () -. t0);
  (* Batched at jobs=2: the divergent sample must come back as a per-sample
     [Error] while its sibling (empty seed: converges instantly) completes. *)
  let batch = [| seed_facts; [ ("seed", []) ] |] in
  let t0 = Monotonic.now () in
  let out =
    Session.run_batch ~jobs:2 ~config:(config ())
      ~provenance_of:(fun _ -> Registry.create Registry.Boolean)
      div batch
  in
  let elapsed = Monotonic.now () -. t0 in
  (match out.(1) with
  | Ok _ -> ()
  | Error _ -> fail "sibling sample failed alongside the divergent one");
  check ~name:"divergent-batch-jobs2"
    (match out.(0) with Ok _ -> Ok () | Error e -> Error e)
    elapsed;
  write_baseline "BENCH_budget.json" (List.rev !rows)

(* ---- fault tolerance (BENCH_resilience.json) --------------------------------------------------- *)

(* Four questions about the fault-tolerant training runtime (see
   lib/apps/common.ml "crash-safe checkpointing"):
   1. Overhead: what does periodic snapshotting cost per epoch on a real
      neurosymbolic training run (MNIST-R sum3)?  Target <= 5%.
   2. Recovery latency: how long does resume-from-latest-valid take
      (read + checksum + restore into live tensors)?
   3. Determinism: does kill-at-step-N + resume reproduce the uninterrupted
      run's final parameters bit for bit?
   4. Fallback: with the newest snapshot corrupted, does resume fall back to
      the previous generation?
   Violations of 1, 3 or 4 bump [bench_failures] (nonzero driver exit). *)
let bench_resilience (m : mode) =
  section "Fault tolerance: checkpoint overhead + recovery (writes BENCH_resilience.json)";
  let open Scallop_tensor in
  let open Scallop_nn in
  let rows = ref [] in
  (* -- 1. checkpoint overhead on MNIST-R sum3 -------------------------------- *)
  let config =
    { (base_config m) with
      Common.epochs = 2;
      n_train = (if m.quick then 300 else 500); n_test = 20 }
  in
  (* checkpoint cadence: one snapshot per ~200 optimizer steps.  The gated
     metric is the amortized cost — (saves per epoch x median save latency)
     over the plain epoch time — because a snapshot's price is two fsyncs,
     and on a shared container a single fsync stall in an end-to-end
     difference-of-two-runs measurement produces arbitrary overhead
     numbers.  The end-to-end checkpointed epoch time is still measured
     (once) and reported as an informational field. *)
  let every_n_steps = 200 in
  let ck_dir = scratch "resilience-overhead" in
  let plain = Mnist_r.train_and_eval config Mnist.Sum3 in
  let ck = { (Common.checkpoint ck_dir) with Common.every_n_steps } in
  let ckpt = Mnist_r.train_and_eval ~checkpoint:ck config Mnist.Sum3 in
  rm_rf ck_dir;
  (* latency of saving a representative snapshot (an MNIST-sized MLP + Adam
     state, ~40 KB payload) through the full atomic protocol *)
  let save_reps =
    let rng = Scallop_utils.Rng.create 99 in
    let mlp = Layers.Mlp.create rng [ 16; 64; 10 ] in
    let opt = Optim.adam ~lr:0.01 (Layers.Mlp.params mlp) in
    let payload =
      Common.checkpoint_payload ~done_steps:600 ~losses:[ 0.5; 0.4 ] ~total:0.0 ~opt ~rngs:[]
    in
    let dir = scratch "resilience-savelat" in
    let r, _ = measure ~reps:15 (fun () -> Scallop_utils.Atomic_io.save ~dir ~keep:3 payload) in
    rm_rf dir;
    r
  in
  let median_save_s = Summary.median save_reps.ms /. 1000.0 in
  let steps_per_epoch = config.Common.n_train in
  let saves_per_epoch = float_of_int steps_per_epoch /. float_of_int every_n_steps in
  let overhead_pct = 100.0 *. saves_per_epoch *. median_save_s /. plain.Common.epoch_time in
  let overhead_ok = overhead_pct <= 5.0 in
  if not overhead_ok then
    fail "checkpointing costs %+.2f%% of epoch time (budget 5%%)" overhead_pct;
  Fmt.pr
    "  mnist-sum3: plain epoch %6.2fs, %.1f saves/epoch x %.1f ms median save = %.2f%% overhead %s@."
    plain.Common.epoch_time saves_per_epoch (1000.0 *. median_save_s) overhead_pct
    (if overhead_ok then "ok" else "VIOLATION");
  rows :=
    ([
       ("name", jstr "checkpoint-overhead");
       ("plain_epoch_s", jnum ~dp:4 plain.Common.epoch_time);
       ("checkpointed_epoch_s", jnum ~dp:4 ckpt.Common.epoch_time);
       ("median_save_ms", jnum (1000.0 *. median_save_s));
       ("saves_per_epoch", jnum ~dp:1 saves_per_epoch);
       ("overhead_pct", jnum ~dp:2 overhead_pct);
       ("within_5pct", jbool overhead_ok);
     ]
    @ spread ~prefix:"save_" save_reps.ms)
    :: !rows;
  (* -- 2..4 run on a small self-contained trainer whose parameters we can
        inspect: an MLP classifier on fixed synthetic rows. ------------------- *)
  let data_rng = Scallop_utils.Rng.create 2026 in
  let synth =
    List.init 64 (fun _ ->
        let x = Nd.init [| 1; 8 |] (fun _ -> Scallop_utils.Rng.float data_rng) in
        (x, Scallop_utils.Rng.int data_rng 4))
  in
  let trainer_config =
    { Common.default_config with Common.epochs = 2; n_train = List.length synth; n_test = 0;
      clip_grad = m.clip_grad }
  in
  let make () =
    let rng = Scallop_utils.Rng.create 7 in
    let mlp = Layers.Mlp.create rng [ 8; 16; 4 ] in
    let opt = Optim.adam ~lr:0.01 (Layers.Mlp.params mlp) in
    (mlp, opt)
  in
  let run ?checkpoint ?crash_at (mlp, opt) =
    let steps = ref 0 in
    Common.run_task ?checkpoint ~task:"synthetic" ~config:trainer_config ~train_data:synth
      ~test_data:[] ~opt
      ~train_step:(fun (x, c) ->
        (match crash_at with
        | Some n -> incr steps; if !steps > n then raise Exit
        | None -> ());
        Common.bce (Layers.Mlp.classify mlp (Autodiff.const x)) (Autodiff.const (Common.one_hot 4 c)))
      ~eval_sample:(fun _ -> true)
      ()
  in
  let params_blob (mlp, _) =
    String.concat ""
      (List.map (fun (p : Autodiff.t) -> Serialize.nd_to_string p.Autodiff.value)
         (Layers.Mlp.params mlp))
  in
  let straight = make () in
  ignore (run straight);
  let reference = params_blob straight in
  (* kill after 7 optimizer steps, then resume in a fresh process image *)
  let ck_dir = scratch "resilience-crash" in
  let ck = { (Common.checkpoint ck_dir) with Common.every_n_steps = 2 } in
  let crashed = make () in
  (try ignore (run ~checkpoint:ck ~crash_at:7 crashed) with Exit -> ());
  let resumed = make () in
  let _, opt2 = resumed in
  let t0 = Monotonic.now () in
  let recovered = Common.try_resume ~ck ~opt:opt2 ~rngs:[] in
  let recovery_ms = 1000.0 *. (Monotonic.now () -. t0) in
  let recovered_steps = match recovered with Some (s, _, _) -> s | None -> -1 in
  ignore (run ~checkpoint:ck resumed);
  let deterministic = String.equal (params_blob resumed) reference in
  if not deterministic then fail "resumed parameters differ from the uninterrupted run";
  Fmt.pr "  crash@7/resume: recovered at step %d in %.2f ms, bit-identical params: %b@."
    recovered_steps recovery_ms deterministic;
  rows :=
    [
      ("name", jstr "crash-resume");
      ("kill_after_steps", jint 7);
      ("recovered_at_step", jint recovered_steps);
      ("recovery_ms", jnum recovery_ms);
      ("bit_identical", jbool deterministic);
    ]
    :: !rows;
  (* -- corruption fallback: flip a byte in the newest snapshot --------------- *)
  let resume_steps () =
    let _, opt' = make () in
    match Common.try_resume ~ck ~opt:opt' ~rngs:[] with
    | Some (steps, _, _) -> steps
    | None -> 0
  in
  let fallback_ok =
    match List.rev (Scallop_utils.Atomic_io.Generations.list ~dir:ck_dir) with
    | newest :: _ :: _ ->
        let before = resume_steps () in
        let path = Scallop_utils.Atomic_io.Generations.path ~dir:ck_dir newest in
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let body = really_input_string ic len in
        close_in ic;
        let b = Bytes.of_string body in
        Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 0xff));
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc;
        (* resume must now land on an older (valid) generation *)
        let after = resume_steps () in
        after > 0 && after < before
    | _ -> false
  in
  rm_rf ck_dir;
  if not fallback_ok then fail "corrupted newest snapshot was not skipped";
  Fmt.pr "  corrupt newest snapshot -> previous generation used: %b@." fallback_ok;
  rows :=
    [ ("name", jstr "corruption-fallback"); ("previous_generation_used", jbool fallback_ok) ]
    :: !rows;
  write_baseline "BENCH_resilience.json" (List.rev !rows)

(* ---- inference service (BENCH_service.json) ---------------------------------------------------- *)

(* The supervised service runtime under load, in two regimes:

   1. baseline: no faults — per-request latency median, quartiles and p99
      (which include queue wait) and throughput, plus a bit-identity check
      of [Service.submit] against [Session.run_batch] over the same requests
      (the determinism contract; divergence bumps [bench_failures]);
   2. chaos: 10% worker kills + 10% stalls injected — goodput (successful
      replies per second) and the shed/retry/requeue/respawn counters.
      Every request must still reach a terminal outcome (violations bump
      [bench_failures]).

   Measurements land in BENCH_service.json. *)
let bench_service (m : mode) =
  section "Inference service: latency, goodput under chaos (writes BENCH_service.json)";
  let module Service = Scallop_serve.Service in
  let module Chaos = Scallop_serve.Chaos in
  let open Scallop_core in
  let module Rng = Scallop_utils.Rng in
  let n = if m.quick then 200 else 1000 in
  let jobs = min 4 cores in
  let src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
rel n_path(c) = c := count(p: path(0, p))
query n_path|}
  in
  let compiled = Session.compile src in
  let sample data_rng i =
    let rng = Rng.substream data_rng i in
    let edges = ref [] in
    for a = 0 to 6 do
      for b = 0 to 6 do
        if a <> b && Rng.float rng < 0.4 then
          edges := (Provenance.Input.prob (0.05 +. (0.9 *. Rng.float rng)), pair a b) :: !edges
      done
    done;
    [ ("edge", List.rev !edges) ]
  in
  let batch = Array.init n (sample (Rng.create 17)) in
  let interp = { (Interp.default_config ()) with Interp.rng = Rng.create 3 } in
  let spec = Registry.Max_min_prob in
  let rows = ref [] in
  let run_regime ~name ~chaos =
    let config =
      {
        (Service.default_config ()) with
        Service.jobs;
        queue_depth = n;
        max_retries = 2;
        backoff_base = 0.001;
        backoff_cap = 0.01;
        watchdog_interval = Some 0.01;
        interp;
        chaos;
      }
    in
    let svc = Service.create ~config spec in
    let t0 = Monotonic.now () in
    let tickets = Array.map (fun facts -> Service.submit svc ~facts compiled) batch in
    let outcomes = Array.map (Service.await svc) tickets in
    let wall = Monotonic.now () -. t0 in
    Service.shutdown svc;
    let s = Service.stats svc in
    let ok =
      Array.fold_left
        (fun acc (o : Service.outcome) ->
          match o.Service.response with Ok _ -> acc + 1 | Error _ -> acc)
        0 outcomes
    in
    if s.Service.completed <> n then
      fail "service (%s): %d/%d terminal outcomes" name s.Service.completed n;
    (* workers and their replacements are the only domains a service spawns *)
    if
      s.Service.domains_spawned <> jobs + s.Service.respawns
      || s.Service.domains_spawned <> s.Service.domains_joined
    then
      fail "service (%s): domain leak (%d workers, %d respawns, %d spawned, %d joined)" name jobs
        s.Service.respawns s.Service.domains_spawned s.Service.domains_joined;
    (outcomes, wall, s, ok)
  in

  Fmt.pr "  %d requests, %d workers, provenance %s@.@." n jobs (Registry.spec_name spec);
  (* regime 1: baseline *)
  let outcomes, wall, _, ok = run_regime ~name:"baseline" ~chaos:Chaos.none in
  let lat =
    Array.to_list (Array.map (fun (o : Service.outcome) -> 1000.0 *. o.Service.latency) outcomes)
  in
  let p50 = Summary.median lat and p99 = Summary.quantile lat 0.99 in
  let rps = float_of_int n /. wall in
  Fmt.pr "  baseline: ok=%d/%d  p50=%.2fms  p99=%.2fms  throughput=%.0f req/s@." ok n p50 p99
    rps;
  let reference =
    Session.run_batch ~jobs ~config:interp ~provenance_of:(fun _ -> Registry.create spec)
      compiled batch
  in
  let divergent = ref 0 in
  Array.iteri
    (fun i (o : Service.outcome) ->
      match (o.Service.response, reference.(i)) with
      | Ok got, Ok want when same_result got want -> ()
      | _ -> incr divergent)
    outcomes;
  if !divergent > 0 then fail "%d/%d requests diverge from run_batch" !divergent n
  else Fmt.pr "  determinism: all %d requests bit-identical to run_batch@." n;
  rows :=
    ([
       ("name", jstr "baseline");
       ("requests", jint n);
       ("jobs", jint jobs);
       ("ok", jint ok);
       ("p50_ms", jnum p50);
       ("p99_ms", jnum p99);
       ("throughput_rps", jnum ~dp:1 rps);
       ("divergent", jint !divergent);
     ]
    @ spread lat)
    :: !rows;

  (* regime 2: chaos *)
  let chaos =
    {
      Chaos.kill_prob = 0.1;
      latency_prob = 0.1;
      latency = 0.005;
      budget_fault_prob = 0.0;
      nan_prob = 0.0;
      seed = 7;
    }
  in
  let _, wall, s, ok = run_regime ~name:"chaos" ~chaos in
  let goodput = float_of_int ok /. wall in
  Fmt.pr
    "  chaos(kill=10%%, stall=10%%): ok=%d/%d  goodput=%.0f req/s  kills=%d stalls=%d \
     retries=%d requeues=%d respawns=%d shed=%d@."
    ok n goodput s.Service.chaos_kills s.Service.chaos_stalls s.Service.retries
    s.Service.requeues s.Service.respawns s.Service.shed;
  rows :=
    [
      ("name", jstr "chaos");
      ("requests", jint n);
      ("jobs", jint jobs);
      ("ok", jint ok);
      ("goodput_rps", jnum ~dp:1 goodput);
      ("kills", jint s.Service.chaos_kills);
      ("stalls", jint s.Service.chaos_stalls);
      ("retries", jint s.Service.retries);
      ("requeues", jint s.Service.requeues);
      ("respawns", jint s.Service.respawns);
      ("shed", jint s.Service.shed);
      ("workers_lost", jint s.Service.workers_lost);
    ]
    :: !rows;
  write_baseline "BENCH_service.json" (List.rev !rows)

(* ---- stateful sessions (BENCH_incr.json) ---------------------------------------------------------- *)

(* Session overhead: an update batch plus [Incr.query] against a cold run
   on the same facts.  A dirty session query is one cold run on the
   columnar executor, so the two should cost the same; the gate keeps the
   session layer (overlay, canonical fact order, clean-repeat cache)
   negligible next to the run it wraps, on the median of the per-round
   session/cold ratios.  The cold run goes to a twin session fed the same
   batches untimed, so it sees the round's facts whichever arm runs first;
   every round checks the two answers bit for bit. *)
let bench_incr (m : mode) =
  section "Stateful sessions: update + query vs a cold run (writes BENCH_incr.json)";
  let open Scallop_core in
  let module Incr = Scallop_incr.Incr in
  let prob_for i = 0.5 +. (float_of_int (i mod 50) /. 100.0) in
  let assert_edge t i = Incr.assert_fact t ~pred:"edge" ~prob:(prob_for i) (pair i (i + 1)) in
  let gate = 1.25 in
  let rows = ref [] in
  let worst = ref 0.0 in
  let run_row ~prov_name ~spec ~n ~batch ~rounds =
    let t = Incr.open_session ~spec tc_src and twin = Incr.open_session ~spec tc_src in
    for i = 0 to n - 1 do
      assert_edge t i;
      assert_edge twin i
    done;
    let tip = ref n in
    let ab =
      measure_ab ~reps:rounds
        ~before:(fun () ->
          for i = !tip to !tip + batch - 1 do
            assert_edge twin i
          done)
        ~check:(fun want got ->
          if not (same_result got want) then
            fail "%s batch=%d: session result diverges from the cold run" prov_name batch)
        (fun () -> Incr.run_cold twin)
        (fun () ->
          for i = !tip to !tip + batch - 1 do
            assert_edge t i
          done;
          tip := !tip + batch;
          Incr.query t)
    in
    let ratio = ab.ratio in
    worst := Float.max !worst ratio;
    Fmt.pr "  %-12s n=%-4d batch=%-3d rounds=%-3d session %8.3f ms  cold %8.3f ms  %5.2fx %s@."
      prov_name n batch rounds (Summary.median ab.b.ms) (Summary.median ab.a.ms) ratio
      (if ratio <= gate then "ok" else "VIOLATION");
    if ratio > gate then
      fail "%s batch=%d: session/cold %.2fx is above the %.2fx gate" prov_name batch ratio gate;
    rows :=
      ([
         ("workload", jstr "tc-chain-extend");
         ("provenance", jstr prov_name);
         ("n", jint n);
         ("batch", jint batch);
         ("rounds", jint rounds);
       ]
      @ spread ~prefix:"session_" ab.b.ms
      @ spread ~prefix:"cold_" ab.a.ms
      @ [ ("session_over_cold", jnum ratio) ])
      :: !rows;
    Incr.close t;
    Incr.close twin
  in
  let n = if m.quick then 300 else 500 in
  let rounds = if m.quick then 8 else 12 in
  List.iter
    (fun (prov_name, spec) ->
      List.iter (fun batch -> run_row ~prov_name ~spec ~n ~batch ~rounds) [ 1; 8; 64 ])
    [ ("boolean", Registry.Boolean); ("minmaxprob", Registry.Max_min_prob) ];
  run_row ~prov_name:"topkproofs-3" ~spec:(Registry.Top_k_proofs 3) ~n:60 ~batch:1 ~rounds;
  Fmt.pr "@.  worst session/cold %.2fx (gate %.2fx)@." !worst gate;
  write_baseline "BENCH_incr.json" (List.rev !rows)
    ~summary:[ ("session_over_cold_max", jnum !worst); ("session_over_cold_gate", jnum ~dp:2 gate) ]

(* ---- durable sessions (BENCH_durability.json) -------------------------------------------------- *)

(* Durability tax and recovery cost of [Durable] sessions:

   1. WAL overhead: single-fact update rounds (assert + query) on a TC
      chain, an ephemeral registry vs a durable one with fsync'd
      write-ahead logging, round for round.  Acceptance gate: the median
      per-round durable/ephemeral ratio is at most 1.10, i.e. at most 10%
      overhead (bump [bench_failures]).
   2. Recovery latency: time for a fresh manager to rebuild the session
      from snapshot + WAL replay, and bit-identity of the recovered
      session's answer against the pre-crash one (a divergence bumps
      [bench_failures]).
   3. Kill-point sweep: the active WAL segment truncated at sampled byte
      offsets — every cut must recover (torn tails are never fatal) and
      answer identically to a cold run. *)
let bench_durability (m : mode) =
  section "Durable sessions: WAL overhead + crash recovery (writes BENCH_durability.json)";
  let open Scallop_core in
  let n = if m.quick then 300 else 500 in
  let rounds = if m.quick then 30 else 60 in
  let rows = ref [] in
  let plain_mgr = Durable.create (Durable.config Registry.Boolean) in
  let sd = scratch "durability-wal" in
  let durable_mgr = Durable.create (Durable.config ~state_dir:sd Registry.Boolean) in
  durable_chain plain_mgr n;
  durable_chain durable_mgr n;
  let ab = measure_ab ~reps:rounds (durable_round plain_mgr n) (durable_round durable_mgr n) in
  ignore (Durable.close plain_mgr ~sid:"b");
  let reference = Durable.query durable_mgr ~sid:"b" () in
  let w = Durable.stats durable_mgr in
  (* abandon without close: the on-disk state is a crash image *)
  Durable.shutdown durable_mgr;
  let overhead_pct = 100.0 *. (ab.ratio -. 1.0) in
  Fmt.pr
    "  TC-%d single-fact rounds: ephemeral %8.3f ms  durable %8.3f ms  overhead %+.1f%%@." n
    (Summary.median ab.a.ms) (Summary.median ab.b.ms) overhead_pct;
  Fmt.pr "  wal: %d appends, %d bytes, %d snapshots@." w.Durable.wal_appends
    w.Durable.wal_bytes w.Durable.snapshots;
  if overhead_pct > 10.0 then fail "WAL overhead %.1f%% exceeds the 10%% gate" overhead_pct;
  rows :=
    ([
       ("workload", jstr "tc-chain-extend");
       ("n", jint n);
       ("rounds", jint rounds);
       ("ephemeral_mean_ms", jnum (Summary.mean ab.a.ms));
       ("durable_mean_ms", jnum (Summary.mean ab.b.ms));
       ("wal_overhead_pct", jnum ~dp:2 overhead_pct);
     ]
    @ spread ~prefix:"ephemeral_" ab.a.ms
    @ spread ~prefix:"durable_" ab.b.ms
    @ [
        ("wal_appends", jint w.Durable.wal_appends);
        ("wal_bytes", jint w.Durable.wal_bytes);
        ("snapshots", jint w.Durable.snapshots);
      ])
    :: !rows;
  (* recovery: rebuild from snapshot + replay, answer must be bit-identical *)
  let t0 = Monotonic.now () in
  let mgr2 = Durable.create (Durable.config ~state_dir:sd Registry.Boolean) in
  let recovery_ms = 1000.0 *. (Monotonic.now () -. t0) in
  let r = Durable.stats mgr2 in
  if not (same_result (Durable.query mgr2 ~sid:"b" ()) reference) then
    fail "recovered session diverges from the pre-crash answer";
  Durable.shutdown mgr2;
  Fmt.pr "  recovery: %.3f ms (%d session, %d ops replayed, snapshot + bounded replay)@."
    recovery_ms r.Durable.recovered r.Durable.wal_replayed;
  rows :=
    [
      ("workload", jstr "recovery");
      ("n", jint n);
      ("recovery_ms", jnum recovery_ms);
      ("sessions_recovered", jint r.Durable.recovered);
      ("ops_replayed", jint r.Durable.wal_replayed);
    ]
    :: !rows;
  (* kill-point sweep over the active segment *)
  let sdir = Filename.concat (Filename.concat sd "sessions") "s-b" in
  let seg =
    Sys.readdir sdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".log")
    |> List.sort compare |> List.rev |> List.hd |> Filename.concat sdir
  in
  let raw = In_channel.with_open_bin seg In_channel.input_all in
  let cuts = if m.quick then 16 else 64 in
  let sweep_ms = ref [] and sweep_ok = ref 0 in
  for k = 0 to cuts - 1 do
    let cut = String.length raw * k / cuts in
    Out_channel.with_open_bin seg (fun oc -> output_string oc (String.sub raw 0 cut));
    let t0 = Monotonic.now () in
    match Durable.create (Durable.config ~state_dir:sd Registry.Boolean) with
    | exception e -> fail "cut at byte %d crashed recovery: %s" cut (Printexc.to_string e)
    | mgr ->
        sweep_ms := (1000.0 *. (Monotonic.now () -. t0)) :: !sweep_ms;
        if (Durable.stats mgr).Durable.recovery_failures > 0 then
          fail "cut at byte %d quarantined the session (torn tail must recover)" cut
        else if same_result (Durable.query mgr ~sid:"b" ()) (Durable.run_cold mgr ~sid:"b" ())
        then incr sweep_ok
        else fail "cut at byte %d diverges from the cold oracle" cut;
        Durable.shutdown mgr
  done;
  rm_rf sd;
  let sweep_mean = Summary.mean !sweep_ms and sweep_max = List.fold_left Float.max 0.0 !sweep_ms in
  Fmt.pr "  kill-point sweep: %d/%d cuts recovered bit-identically (mean %.3f ms, max %.3f ms)@."
    !sweep_ok cuts sweep_mean sweep_max;
  rows :=
    ([
       ("workload", jstr "kill-point-sweep");
       ("cuts", jint cuts);
       ("recovered_identical", jint !sweep_ok);
       ("recovery_mean_ms", jnum sweep_mean);
       ("recovery_max_ms", jnum sweep_max);
     ]
    @ spread ~prefix:"recovery_" !sweep_ms)
    :: !rows;
  (* group commit: concurrent writers to one session share fsync batches.
     Four domains drive fsync'd asserts into the same session (disjoint
     edge chains), so one batching leader settles several appends to the
     session's WAL per fsync; the sync count landing below the append
     count is the acceptance gate. *)
  let module Wal = Scallop_utils.Wal in
  let gd = scratch "durability-group" in
  let gmgr = Durable.create (Durable.config ~state_dir:gd ~group_commit:true Registry.Boolean) in
  let writers = 4 and per = if m.quick then 100 else 250 in
  ignore (Durable.open_session gmgr ~sid:"g" tc_src);
  let t0 = Monotonic.now () in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let v = (w * 1000) + i in
              Durable.assert_fact gmgr ~sid:"g" ~pred:"edge" (pair v (v + 1))
            done))
  in
  List.iter Domain.join domains;
  let group_dt = Monotonic.now () -. t0 in
  let syncs, appends =
    match gmgr.Durable.wal_group with Some g -> Wal.Group.stats g | None -> (0, 0)
  in
  Durable.shutdown gmgr;
  rm_rf gd;
  let per_op_us = 1e6 *. group_dt /. float_of_int (writers * per) in
  let per_fsync = float_of_int appends /. float_of_int (max 1 syncs) in
  Fmt.pr
    "  group commit: %d writers x %d fsync'd asserts in %.3f s (%.1f us/op), %d fsyncs \
     for %d appends (%.2f appends/fsync)@."
    writers per group_dt per_op_us syncs appends per_fsync;
  if syncs >= appends then
    fail "group commit did not amortize (%d fsyncs for %d appends)" syncs appends;
  rows :=
    [
      ("workload", jstr "group-commit");
      ("writers", jint writers);
      ("ops_per_writer", jint per);
      ("per_op_us", jnum ~dp:1 per_op_us);
      ("fsyncs", jint syncs);
      ("appends", jint appends);
      ("appends_per_fsync", jnum ~dp:2 per_fsync);
    ]
    :: !rows;
  write_baseline "BENCH_durability.json" (List.rev !rows)
    ~summary:
      [ ("wal_overhead_pct", jnum ~dp:2 overhead_pct); ("wal_overhead_gate_pct", jnum ~dp:1 10.0) ]

(* ---- replicated durable sessions (BENCH_replication.json) -------------------------------------- *)

(* Cost and latency of WAL shipping ([Replica] over [Durable]):

   1. Acked-write overhead: single-fact update rounds (assert + query) on
      a TC-300 chain, a local-fsync durable session vs a primary whose
      every write blocks on a quorum acknowledgement from a live
      follower, round for round.  Acceptance gate: the median per-round
      quorum/local ratio is at most 1.25, i.e. quorum acking costs at most
      25% over the local-fsync path (bump [bench_failures]).
   2. Steady-state replication lag: the primary's acknowledgement-barrier
      wait — the time from local commit to quorum ack — mean and max.
   3. Failover: promotion latency of the caught-up follower, and
      bit-identity of the promoted node's answer against the primary's
      (a divergence bumps [bench_failures]).
   4. Async catch-up: a follower draining a burst of unpolled frames,
      reported as frames/s and total catch-up time. *)
let bench_replication (m : mode) =
  section "Replication: quorum-ack overhead, lag, failover (writes BENCH_replication.json)";
  let open Scallop_core in
  let module Replica = Scallop_incr.Replica in
  let n = 300 in
  let rounds = if m.quick then 30 else 60 in
  let rows = ref [] in
  (* baseline: local fsync'd WAL, no replication *)
  let sd = scratch "replication-local" in
  let local_mgr = Durable.create (Durable.config ~state_dir:sd Registry.Boolean) in
  (* quorum cluster: every write blocks on a live follower's ack.  The
     follower runs in-process, driven by the primary's barrier through the
     pump hook — the measured wait is apply + local log + ack, not a poll
     interval. *)
  let root = scratch "replication-quorum" in
  let ship = Filename.concat root "ship" in
  let fmgr =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root "f") Registry.Boolean)
  in
  let fol_ref = ref None in
  let pump () = match !fol_ref with Some f -> ignore (Replica.Follower.poll f) | None -> () in
  let prim =
    Replica.Primary.create ~dir:ship ~id:"alpha" ~ack:Replica.Ack_quorum ~cluster:1
      ~ack_timeout:30.0 ~pump ()
  in
  let pmgr =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root "p")
         ~repl:(Replica.Primary.sink prim) Registry.Boolean)
  in
  let fol = Replica.Follower.create ~dir:ship ~fid:"beta" ~mgr:fmgr () in
  fol_ref := Some fol;
  durable_chain local_mgr n;
  durable_chain pmgr n;
  let ab = measure_ab ~reps:rounds (durable_round local_mgr n) (durable_round pmgr n) in
  Durable.shutdown local_mgr;
  rm_rf sd;
  let overhead_pct = 100.0 *. (ab.ratio -. 1.0) in
  let pst = Replica.Primary.status prim in
  Fmt.pr
    "  TC-%d single-fact rounds: local-fsync %8.3f ms  quorum-acked %8.3f ms  overhead \
     %+.1f%%@."
    n (Summary.median ab.a.ms) (Summary.median ab.b.ms) overhead_pct;
  Fmt.pr "  replication lag (commit -> quorum ack): mean %.3f ms  max %.3f ms  (%d barriers)@."
    pst.Replica.Primary.st_mean_barrier_ms pst.st_max_barrier_ms pst.st_barriers;
  if overhead_pct > 25.0 then fail "quorum-ack overhead %.1f%% exceeds the 25%% gate" overhead_pct;
  rows :=
    ([
       ("workload", jstr "tc-chain-extend");
       ("n", jint n);
       ("rounds", jint rounds);
       ("local_fsync_mean_ms", jnum (Summary.mean ab.a.ms));
       ("quorum_mean_ms", jnum (Summary.mean ab.b.ms));
       ("quorum_overhead_pct", jnum ~dp:2 overhead_pct);
     ]
    @ spread ~prefix:"local_fsync_" ab.a.ms
    @ spread ~prefix:"quorum_" ab.b.ms
    @ [
        ("lag_mean_ms", jnum pst.Replica.Primary.st_mean_barrier_ms);
        ("lag_max_ms", jnum pst.st_max_barrier_ms);
        ("frames_shipped", jint pst.st_shipped);
      ])
    :: !rows;
  (* failover: promote the caught-up follower, answers must be bit-identical *)
  let reference = Durable.query pmgr ~sid:"b" () in
  let t0 = Monotonic.now () in
  let _epoch = Replica.Follower.promote fol in
  let promote_ms = 1000.0 *. (Monotonic.now () -. t0) in
  if not (same_result (Durable.query fmgr ~sid:"b" ()) reference) then
    fail "promoted follower diverges from the primary's answer";
  let fst_ = Replica.Follower.status fol in
  Fmt.pr "  failover: promoted in %.3f ms (%d frames applied, %d divergences)@." promote_ms
    fst_.Replica.Follower.st_applied fst_.st_divergences;
  rows :=
    [
      ("workload", jstr "failover");
      ("promote_ms", jnum promote_ms);
      ("frames_applied", jint fst_.Replica.Follower.st_applied);
      ("divergences", jint fst_.st_divergences);
    ]
    :: !rows;
  Durable.shutdown pmgr;
  Durable.shutdown fmgr;
  Replica.Primary.close prim;
  Replica.Follower.close fol;
  rm_rf root;
  (* async catch-up: a follower draining a burst it never saw land *)
  let root2 = scratch "replication-async" in
  let ship2 = Filename.concat root2 "ship" in
  let prim2 =
    Replica.Primary.create ~dir:ship2 ~id:"alpha" ~ack:Replica.Ack_async ()
  in
  let pmgr2 =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root2 "p")
         ~repl:(Replica.Primary.sink prim2) Registry.Boolean)
  in
  durable_chain pmgr2 n;
  let fmgr2 =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root2 "f") Registry.Boolean)
  in
  let fol2 = Replica.Follower.create ~dir:ship2 ~fid:"beta" ~mgr:fmgr2 () in
  let t0 = Monotonic.now () in
  while Replica.Follower.poll fol2 > 0 do
    ()
  done;
  let catchup_s = Monotonic.now () -. t0 in
  let fst2 = Replica.Follower.status fol2 in
  let frames = fst2.Replica.Follower.st_applied + fst2.st_installs + fst2.st_adoptions in
  let frames_per_s = float_of_int (max 1 frames) /. Float.max 1e-9 catchup_s in
  Fmt.pr "  async catch-up: %d-op burst drained in %.3f ms (%.0f frames/s)@." n
    (1000.0 *. catchup_s) frames_per_s;
  rows :=
    [
      ("workload", jstr "async-catchup");
      ("burst_ops", jint n);
      ("catchup_ms", jnum (1000.0 *. catchup_s));
      ("frames_per_s", jnum ~dp:0 frames_per_s);
    ]
    :: !rows;
  Durable.shutdown pmgr2;
  Durable.shutdown fmgr2;
  Replica.Primary.close prim2;
  Replica.Follower.close fol2;
  rm_rf root2;
  write_baseline "BENCH_replication.json" (List.rev !rows)
    ~summary:
      [
        ("quorum_overhead_pct", jnum ~dp:2 overhead_pct);
        ("quorum_overhead_gate_pct", jnum ~dp:1 25.0);
      ]

(* ---- the serve loop in process (BENCH_server.json) --------------------------------------------- *)

(* [Server], the request loop behind [scallop serve], driven in process
   with the end-to-end benchmark's sessions-maintain mix: 16 tenants, each
   a 40-node min-max-prob reach graph of 100 edges, then 30% asserts, 30%
   retracts and 40% queries.  The server runs over an in-memory registry
   and one worker, and a closed loop keeps at most two requests
   outstanding.  Opening the tenants and loading their graphs happens
   before timing; each timed rep sends the next [ops] requests and waits
   for their replies.  Every reply, set-up included, goes through the
   generator's oracle ([Gen.check]), and a mismatch fails the section.
   Minor words count the serving domain only (dispatch, writes, replies):
   queries run on the worker's domain.  No gate yet. *)
let bench_server (m : mode) =
  section "Serve loop in process: the sessions-maintain mix (writes BENCH_server.json)";
  let open Scallop_core in
  let module Service = Scallop_serve.Service in
  let module Server = Scallop_serve.Server in
  let module Protocol = Scallop_serve.Protocol in
  let module Gen = E2e_core.Gen in
  let module Reply = E2e_core.Reply in
  let sizes = { Gen.tenants = 16; nodes = 40; edges = 100; assert_pct = 30; retract_pct = 30 } in
  let ops = if m.quick then 400 else 2000 in
  let reps = if m.quick then 5 else 10 in
  let window = 2 in
  let spec = Registry.Max_min_prob in
  let interp = Interp.default_config () in
  let svc = Service.create ~config:{ (Service.default_config ()) with jobs = 1; interp } spec in
  let dmgr = Durable.create (Durable.config ~group_commit:true ~interp spec) in
  (* the closed loop: [sent] requests handed to the server, [replies] the
     texts it sent back, newest first *)
  let mu = Mutex.create () and answered = Condition.create () in
  let sent = ref 0 and replies = ref [] and n_replies = ref 0 in
  let sink reply =
    Mutex.protect mu (fun () ->
        replies := reply :: !replies;
        incr n_replies;
        Condition.signal answered)
  in
  let server = Server.create svc dmgr ~sink in
  let await_below k =
    Mutex.protect mu (fun () ->
        while !sent - !n_replies > k do
          Condition.wait answered mu
        done)
  in
  let send (op : Gen.op) =
    await_below (window - 1);
    incr sent;
    Server.handle server (Protocol.parse op.Gen.line)
  in
  let g = Gen.session_gen sizes ~seed:1 in
  let setup = Gen.session_setup g in
  List.iter send setup;
  await_below 0;
  (* the model moves with every generated request, so the reps' requests
     are generated before timing, in the order they are sent *)
  let batches =
    List.init (warmup + reps) (fun _ -> List.init ops (fun _ -> Gen.session_next g))
  in
  let todo = ref batches in
  let r, () =
    measure ~reps (fun () ->
        let batch = List.hd !todo in
        todo := List.tl !todo;
        List.iter send batch;
        await_below 0)
  in
  Server.close server;
  Service.shutdown svc;
  Durable.shutdown dmgr;
  (* each reply is one request's [out] rows and its [done] line *)
  let answer text =
    List.fold_left
      (fun (ok, rows) line ->
        match Reply.classify line with
        | Reply.Out (_, row) -> (ok, row :: rows)
        | Reply.Done (_, ok, _) -> (ok, rows)
        | Reply.Other _ -> (false, rows))
      (false, [])
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
  in
  let requests = setup @ List.concat batches in
  let bad =
    List.fold_left2
      (fun bad op text ->
        let ok, rows = answer text in
        if Gen.check op ~ok ~rows then bad else bad + 1)
      0 requests (List.rev !replies)
  in
  let n = List.length requests in
  if bad > 0 then fail "server: %d of %d replies disagree with the oracle" bad n
  else Fmt.pr "  checked: all %d replies agree with the oracle@." n;
  let per_op = List.map (fun ms -> ms /. float_of_int ops) r.ms in
  let rate = List.map (fun ms -> 1000.0 /. ms) per_op in
  let rate_q1, rate_q3 = Summary.quartiles rate in
  let words = Summary.median r.words /. float_of_int ops in
  Fmt.pr "  %d tenants, %d ops x %d reps, window %d: %.0f ops/s (q1 %.0f, q3 %.0f), %.3f ms/op, \
          %.0f minor words/op@."
    sizes.Gen.tenants ops reps window (Summary.median rate) rate_q1 rate_q3
    (Summary.median per_op) words;
  write_baseline "BENCH_server.json"
    [
      [
        ("workload", jstr "sessions-maintain");
        ("provenance", jstr (Registry.spec_name spec));
        ("tenants", jint sizes.Gen.tenants);
        ("nodes", jint sizes.Gen.nodes);
        ("edges", jint sizes.Gen.edges);
        ("jobs", jint 1);
        ("window", jint window);
        ("ops", jint ops);
        ("runs", jint reps);
        ("checked", jint n);
        ("mismatches", jint bad);
        ("ops_per_s_median", jnum ~dp:1 (Summary.median rate));
        ("ops_per_s_q1", jnum ~dp:1 rate_q1);
        ("ops_per_s_q3", jnum ~dp:1 rate_q3);
      ]
      @ spread ~prefix:"op_" per_op
      @ [ ("minor_words_per_op", jnum ~dp:1 words) ];
    ]

(* ---- front end ---------------------------------------------------------------------------- *)

let bench_front (m : mode) =
  section "Front end: one-shot programs through compile and input relations (writes BENCH_front.json)";
  let open Scallop_core in
  let module Gen = E2e_core.Gen in
  (* oneshot-mixed's sizes (bench/e2e/e2e.ml), one family at a time *)
  let family reach_pct unreach_pct =
    { Gen.o_nodes = 60; o_edges = 150; groups = 40; per_group = 40; reach_pct; unreach_pct }
  in
  let families = [ ("reach", family 100 0); ("unreach", family 0 100); ("group", family 0 0) ] in
  let programs = if m.quick then 5 else 20 in
  let reps = if m.quick then 10 else 20 in
  let module P = (val Registry.create Registry.Boolean) in
  let module B = Batch_ops.Make (P) in
  (* a run's input relations, built as [Session.run] builds them *)
  let inputs c () =
    let inp = B.inputs () in
    ignore (Session.load_facts (module P) c [] ~add:(B.input_add inp));
    let batches = B.input_batches inp in
    B.release ();
    batches
  in
  let rows =
    List.map
      (fun (name, cfg) ->
        let rng = E2e_core.Prng.create ~seed:1 ~stream:2 in
        (* a one-shot line is the program with ';' for its newlines *)
        let sources =
          List.init programs (fun _ ->
              String.map (fun c -> if c = ';' then '\n' else c) (Gen.oneshot_next rng cfg).Gen.line)
        in
        (* every program is timed on its own, so its words repeat exactly *)
        let per_program f = reps_of (List.rev_map (fun src -> fst (measure ~reps (f src))) sources) in
        let compile = per_program (fun src () -> Session.compile src) in
        let inputs = per_program (fun src -> inputs (Session.compile src)) in
        let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 sources / programs in
        let words r = Summary.median r.words and promoted r = Summary.median r.promoted in
        Fmt.pr "  %-8s %6d B: compile %.3f ms, %.0fk minor / %.0fk promoted words; inputs %.3f ms, \
                %.0fk minor / %.0fk promoted words@."
          name bytes (Summary.median compile.ms) (words compile /. 1e3) (promoted compile /. 1e3)
          (Summary.median inputs.ms) (words inputs /. 1e3) (promoted inputs /. 1e3);
        [
          ("family", jstr name);
          ("programs", jint programs);
          ("runs", jint reps);
          ("source_bytes", jint bytes);
        ]
        @ spread ~prefix:"compile_" compile.ms
        @ [
            ("compile_minor_words", jnum ~dp:0 (words compile));
            ("compile_promoted_words", jnum ~dp:0 (promoted compile));
          ]
        @ spread ~prefix:"inputs_" inputs.ms
        @ [
            ("inputs_minor_words", jnum ~dp:0 (words inputs));
            ("inputs_promoted_words", jnum ~dp:0 (promoted inputs));
          ])
      families
  in
  write_baseline "BENCH_front.json" rows

(* ---- driver --------------------------------------------------------------------------------------- *)

let all_experiments =
  [
    ("table1", bench_table1);
    ("table2", bench_table2);
    ("accuracy", bench_accuracy);
    ("provenances", bench_provenances);
    ("table4", bench_table4);
    ("table5", bench_table5);
    ("fig18", bench_fig18);
    ("fig19", bench_fig19);
    ("pacman", bench_pacman);
    ("micro", bench_micro);
    ("interp", bench_interp);
    ("batch", bench_batch);
    ("budget", bench_budget);
    ("resilience", bench_resilience);
    ("service", bench_service);
    ("incr", bench_incr);
    ("durability", bench_durability);
    ("replication", bench_replication);
    ("server", bench_server);
    ("front", bench_front);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* flags: --full, --checkpoint-dir DIR, --resume, --clip-grad X; everything
     else selects experiments by name *)
  let quick = ref true and checkpoint_dir = ref None and resume = ref false in
  let clip_grad = ref None in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest -> quick := false; parse rest
    | "--resume" :: rest -> resume := true; parse rest
    | "--checkpoint-dir" :: dir :: rest -> checkpoint_dir := Some dir; parse rest
    | "--clip-grad" :: x :: rest -> (
        match float_of_string_opt x with
        | Some v when v > 0.0 -> clip_grad := Some v; parse rest
        | _ -> Fmt.epr "--clip-grad expects a positive float, got %S@." x; exit 2)
    | ("--checkpoint-dir" | "--clip-grad") :: [] ->
        Fmt.epr "missing value for the last flag@."; exit 2
    | name :: rest -> selected := name :: !selected; parse rest
  in
  parse args;
  let selected = List.rev !selected in
  let mode =
    { quick = !quick; checkpoint_dir = !checkpoint_dir; resume = !resume;
      clip_grad = !clip_grad }
  in
  let to_run =
    if selected = [] then all_experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name all_experiments with
          | Some f -> Some (name, f)
          | None ->
              Fmt.epr "unknown experiment %S (available: %s)@." name
                (String.concat ", " (List.map fst all_experiments));
              None)
        selected
  in
  Fmt.pr "Scallop reproduction benchmark suite (%s mode)@."
    (if mode.quick then "quick" else "full");
  let t0 = Scallop_utils.Monotonic.now () in
  List.iter
    (fun (name, f) ->
      let t = Scallop_utils.Monotonic.now () in
      f mode;
      Fmt.pr "@.[%s finished in %.1fs]@." name (Scallop_utils.Monotonic.now () -. t);
      Format.pp_print_flush Format.std_formatter ())
    to_run;
  Fmt.pr "@.All experiments finished in %.1fs.@." (Scallop_utils.Monotonic.now () -. t0);
  if !bench_failures > 0 then begin
    Fmt.epr "%d correctness check(s) failed.@." !bench_failures;
    exit 1
  end
