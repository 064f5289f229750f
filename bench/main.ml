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
      micro batch budget resilience service incr durability replication

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
  let tc_src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let compiled = Scallop_core.Session.compile tc_src in
  let facts =
    let rng = Scallop_utils.Rng.create 5 in
    [
      ( "edge",
        List.init 30 (fun _ ->
            ( Scallop_core.Provenance.Input.prob (Scallop_utils.Rng.float rng),
              Scallop_core.Tuple.of_list
                [ Scallop_core.Value.int Scallop_core.Value.I32 (Scallop_utils.Rng.int rng 10);
                  Scallop_core.Value.int Scallop_core.Value.I32 (Scallop_utils.Rng.int rng 10) ] )) );
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
  let tests = [ mmp_ops; damp_ops; dtkp_conj; dtkp_neg; wmc; fixpoint ] in
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
   (sum + count over many groups).  Each workload runs with the fixpoint
   index cache on and off, under discrete, minmaxprob and top-k-proof
   provenances; a last row pair times MNIST sum3 under difftopkproofsme-3
   on both engines, alternating (the training path).  The measurements land
   in BENCH_interp.json. *)
and bench_interp (m : mode) =
  section "Interpreter workloads: fixpoint + aggregation throughput (writes BENCH_interp.json)";
  let open Scallop_core in
  let tc_src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let agg_src =
    {|type item(i32, i32)
rel total(g, s) = s := sum(x: item(g, x))
rel sizes(g, n) = n := count(x: item(g, x))
query total
query sizes|}
  in
  let chain_facts n =
    [
      ( "edge",
        List.init n (fun i ->
            ( Provenance.Input.prob 0.9,
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  let agg_facts ~groups ~per_group =
    let rng = Scallop_utils.Rng.create 9 in
    [
      ( "item",
        List.concat
          (List.init groups (fun g ->
               List.init per_group (fun _ ->
                   ( Provenance.Input.prob (0.5 +. (0.5 *. Scallop_utils.Rng.float rng)),
                     Tuple.of_list
                       [
                         Value.int Value.I32 g;
                         Value.int Value.I32 (Scallop_utils.Rng.int rng 10);
                       ] )))) );
    ]
  in
  (* [prov ()] makes the fresh provenance instance each run needs. *)
  let time_once ~cache ~columnar ~prov compiled facts =
    let config =
      { (Interp.default_config ()) with Interp.cache_indices = cache; columnar }
    in
    let t0 = Scallop_utils.Monotonic.now () in
    ignore (Session.run ~config ~provenance:(prov ()) compiled ~facts ());
    Scallop_utils.Monotonic.now () -. t0
  in
  (* Allocation profile: minor-heap words per derived output tuple, from a
     dedicated run so the timed runs stay unperturbed.  The columnar rows
     should sit well below their row-engine twins — flat columns replace
     one boxed tuple + map node per derivation. *)
  let alloc_per_tuple ~cache ~columnar ~prov compiled facts =
    let config =
      { (Interp.default_config ()) with Interp.cache_indices = cache; columnar }
    in
    let w0 = Gc.minor_words () in
    let r = Session.run ~config ~provenance:(prov ()) compiled ~facts () in
    let words = Gc.minor_words () -. w0 in
    let tuples =
      List.fold_left (fun acc (_, rows) -> acc + List.length rows) 0 r.Session.outputs
    in
    if tuples = 0 then 0.0 else words /. float_of_int tuples
  in
  let results = ref [] in
  let means : ((string * string * bool * bool) * float) list ref = ref [] in
  let runs = if m.quick then 3 else 8 in
  let registry spec () = Registry.create spec in
  let measure ?(engines = [ false ]) ~name ~prov_name ~prov ~n compiled facts =
    List.iter
      (fun columnar ->
        List.iter
          (fun cache ->
            ignore (time_once ~cache ~columnar ~prov compiled facts);
            let total = ref 0.0 in
            for _ = 1 to runs do
              total := !total +. time_once ~cache ~columnar ~prov compiled facts
            done;
            let mean = !total /. float_of_int runs in
            let words = alloc_per_tuple ~cache ~columnar ~prov compiled facts in
            means := ((name, prov_name, cache, columnar), mean) :: !means;
            Fmt.pr
              "  %-24s %-12s n=%-5d cache=%-5b columnar=%-5b %9.2f ms %10.2f ops/sec %9.1f w/tuple@."
              name prov_name n cache columnar (1000.0 *. mean) (1.0 /. mean) words;
            Format.pp_print_flush Format.std_formatter ();
            results :=
              Fmt.str
                {|    {"name": %S, "provenance": %S, "n": %d, "cache": %b, "columnar": %b, "runs": %d, "mean_ms": %.3f, "ops_per_sec": %.3f, "minor_words_per_tuple": %.1f}|}
                name prov_name n cache columnar runs (1000.0 *. mean) (1.0 /. mean) words
              :: !results)
          [ true; false ])
      engines
  in
  let tc = Session.compile tc_src in
  let agg = Session.compile agg_src in
  measure ~engines:[ false; true ] ~name:"transitive-closure-chain" ~prov_name:"boolean"
    ~prov:(registry Registry.Boolean) ~n:500 tc (chain_facts 500);
  measure ~engines:[ false; true ] ~name:"transitive-closure-chain" ~prov_name:"minmaxprob"
    ~prov:(registry Registry.Max_min_prob) ~n:500 tc (chain_facts 500);
  (* TC-120 under top-k proofs, three configurations: the guided best-first
     operators with the cross-iteration WMC cache (the default), guided
     without the cache, and the eager reference operators without the cache
     (the historic configuration every speedup claim is measured against).
     The repeated-run methodology means the cached rows report warm-cache
     performance — exactly the fixpoint-iteration / training-step reuse the
     cache exists for. *)
  Wmc.clear_cache ();
  measure ~name:"transitive-closure-chain" ~prov_name:"topkproofs-3"
    ~prov:(registry (Registry.Top_k_proofs 3)) ~n:120 tc (chain_facts 120);
  Wmc.set_cache_enabled false;
  measure ~name:"transitive-closure-chain" ~prov_name:"topkproofs-3-nowmccache"
    ~prov:(registry (Registry.Top_k_proofs 3)) ~n:120 tc (chain_facts 120);
  let eager_topk3 () : Provenance.t =
    let module M =
      Prov_prob.Top_k_proofs_eager
        (struct
          let k = 3
        end)
        ()
    in
    (module M)
  in
  measure ~name:"transitive-closure-chain" ~prov_name:"topkproofseager-3-nowmccache"
    ~prov:eager_topk3 ~n:120 tc (chain_facts 120);
  Wmc.set_cache_enabled true;
  (* computed here, before the aggregation workload measures another
     topkproofs-3 row under the same key *)
  let speedup =
    match
      ( List.assoc_opt
          ("transitive-closure-chain", "topkproofseager-3-nowmccache", true, false)
          !means,
        List.assoc_opt ("transitive-closure-chain", "topkproofs-3", true, false) !means )
    with
    | Some eager, Some cached when cached > 0.0 -> eager /. cached
    | _ -> 0.0
  in
  measure ~engines:[ false; true ] ~name:"aggregation-sum-count" ~prov_name:"boolean"
    ~prov:(registry Registry.Boolean) ~n:2000 agg (agg_facts ~groups:50 ~per_group:40);
  measure ~engines:[ false; true ] ~name:"aggregation-sum-count" ~prov_name:"minmaxprob"
    ~prov:(registry Registry.Max_min_prob) ~n:2000 agg (agg_facts ~groups:50 ~per_group:40);
  measure ~engines:[ false; true ] ~name:"aggregation-sum-count" ~prov_name:"topkproofs-3"
    ~prov:(registry (Registry.Top_k_proofs 3)) ~n:60 agg (agg_facts ~groups:6 ~per_group:10);
  (* The training path's A/B: MNIST sum3 (Table 4) under difftopkproofsme-3,
     the provenance [train-sum3] trains with, the two engines alternating run
     by run so host drift hits both alike. *)
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
  let ab_runs = if m.quick then 200 else 600 in
  let ab_total = [| 0.0; 0.0 |] in
  List.iter (fun columnar -> ignore (time_once ~cache:true ~columnar ~prov:sum3_prov sum3 digit_facts))
    [ false; true ];
  for _ = 1 to ab_runs do
    List.iteri
      (fun k columnar ->
        ab_total.(k) <-
          ab_total.(k) +. time_once ~cache:true ~columnar ~prov:sum3_prov sum3 digit_facts)
      [ false; true ]
  done;
  List.iteri
    (fun k columnar ->
      let mean = ab_total.(k) /. float_of_int ab_runs in
      let words = alloc_per_tuple ~cache:true ~columnar ~prov:sum3_prov sum3 digit_facts in
      Fmt.pr "  %-24s %-12s n=%-5d cache=true  columnar=%-5b %9.3f ms %10.2f ops/sec %9.1f w/tuple@."
        "mnist-sum3-ab" "difftopkproofsme-3" 30 columnar (1000.0 *. mean) (1.0 /. mean) words;
      results :=
        Fmt.str
          {|    {"name": "mnist-sum3-ab", "provenance": "difftopkproofsme-3", "n": 30, "cache": true, "columnar": %b, "runs": %d, "mean_ms": %.3f, "ops_per_sec": %.3f, "minor_words_per_tuple": %.1f}|}
          columnar ab_runs (1000.0 *. mean) (1.0 /. mean) words
        :: !results)
    [ false; true ];
  let sum3_ratio = ab_total.(1) /. ab_total.(0) in
  Fmt.pr "  mnist-sum3 difftopkproofsme-3 columnar/tree-walker time: %.3f (alternating, %d runs each)@."
    sum3_ratio ab_runs;
  Fmt.pr "@.  TC-120 topkproofs-3 guided+cache vs eager (historic): %.2fx@." speedup;
  (* Columnar gate: the vectorized engine must beat the cached row engine by
     >= 10x on the TC-500 boolean workload.  A shortfall is a perf
     regression in the batch operators and fails the bench driver. *)
  let col_gate = 10.0 in
  let col_speedup =
    match
      ( List.assoc_opt ("transitive-closure-chain", "boolean", true, false) !means,
        List.assoc_opt ("transitive-closure-chain", "boolean", true, true) !means )
    with
    | Some row, Some col when col > 0.0 -> row /. col
    | _ -> 0.0
  in
  if col_speedup < col_gate then begin
    incr bench_failures;
    Fmt.epr "  COLUMNAR GATE FAILURE: TC-500 boolean columnar speedup %.2fx < %.0fx@."
      col_speedup col_gate
  end;
  Fmt.pr "  TC-500 boolean columnar vs row (cached): %.2fx %s@." col_speedup
    (if col_speedup >= col_gate then "ok" else "VIOLATION");
  let oc = open_out "BENCH_interp.json" in
  output_string oc "{\n  \"benchmarks\": [\n";
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ],\n";
  output_string oc
    (Fmt.str "  \"tc120_topk_speedup_guided_cache_vs_eager\": %.3f,\n" speedup);
  output_string oc (Fmt.str "  \"tc500_columnar_speedup\": %.3f,\n" col_speedup);
  output_string oc (Fmt.str "  \"mnist_sum3_columnar_vs_tree\": %.3f\n}\n" sum3_ratio);
  close_out oc;
  Fmt.pr "@.  wrote BENCH_interp.json (%d measurements)@." (List.length !results)

(* ---- parallel batch runtime (BENCH_batch.json) ------------------------------------------------- *)

(* Domain-scaling curve for [Session.run_batch] on the batched TC /
   aggregation workloads: one compiled plan, a batch of per-sample fact
   sets, executed at 1/2/4/8 domains.  Every parallel run is compared
   tuple-for-tuple (probabilities included) against the sequential
   reference, so this benchmark doubles as a correctness check — any
   divergence bumps [bench_failures] and the driver exits nonzero. *)
let bench_batch (m : mode) =
  section "Parallel batch runtime: domain-scaling curve (writes BENCH_batch.json)";
  let open Scallop_core in
  let tc_src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let agg_src =
    {|type item(i32, i32)
rel total(g, s) = s := sum(x: item(g, x))
rel sizes(g, n) = n := count(x: item(g, x))
query total
query sizes|}
  in
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
            ( Provenance.Input.prob (0.5 +. (0.5 *. Scallop_utils.Rng.float rng)),
              Tuple.of_list [ Value.int Value.I32 j; Value.int Value.I32 (j + 1) ] )) );
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
                     Tuple.of_list
                       [
                         Value.int Value.I32 g;
                         Value.int Value.I32 (Scallop_utils.Rng.int rng 10);
                       ] )))) );
    ]
  in
  let output_equal (a : Session.result) (b : Session.result) =
    let rel_equal (pa, la) (pb, lb) =
      String.equal pa pb
      && List.length la = List.length lb
      && List.for_all2
           (fun (ta, oa) (tb, ob) -> Tuple.compare ta tb = 0 && Stdlib.compare oa ob = 0)
           la lb
    in
    List.length a.Session.outputs = List.length b.Session.outputs
    && List.for_all2 rel_equal a.Session.outputs b.Session.outputs
    && Stdlib.compare a.Session.fact_ids b.Session.fact_ids = 0
  in
  let results = ref [] in
  let measure ~name ~prov_name ~spec ~n compiled batch =
    (* Sequential reference through the documented equivalence: a plain map
       of [Session.run] under [batch_config]. *)
    let config () = Interp.default_config () in
    let reference =
      Array.mapi
        (fun i facts ->
          Session.run
            ~config:(Session.batch_config (config ()) i)
            ~provenance:(Registry.create spec) compiled ~facts ())
        batch
    in
    let seq_mean = ref 0.0 in
    List.iter
      (fun jobs ->
        let run_once () =
          Session.run_batch_exn ~jobs ~config:(config ())
            ~provenance_of:(fun _ -> Registry.create spec)
            compiled batch
        in
        let out = run_once () in
        let ok =
          Array.length out = Array.length reference
          && Array.for_all2 output_equal out reference
        in
        if not ok then begin
          incr bench_failures;
          Fmt.epr "  DIVERGENCE: %s/%s at jobs=%d differs from sequential!@." name prov_name
            jobs
        end;
        let total = ref 0.0 in
        for _ = 1 to runs do
          let t0 = Scallop_utils.Monotonic.now () in
          ignore (run_once ());
          total := !total +. (Scallop_utils.Monotonic.now () -. t0)
        done;
        let mean = !total /. float_of_int runs in
        if jobs = 1 then seq_mean := mean;
        let speedup = if mean > 0.0 then !seq_mean /. mean else 0.0 in
        Fmt.pr
          "  %-24s %-12s n=%-4d batch=%-3d jobs=%d %9.2f ms %8.1f samples/s  x%.2f %s@." name
          prov_name n batch_size jobs (1000.0 *. mean)
          (float_of_int batch_size /. mean)
          speedup
          (if ok then "" else "DIVERGED");
        Format.pp_print_flush Format.std_formatter ();
        results :=
          Fmt.str
            {|    {"workload": %S, "provenance": %S, "n": %d, "batch": %d, "jobs": %d, "runs": %d, "mean_ms": %.3f, "samples_per_sec": %.3f, "speedup_vs_seq": %.3f, "deterministic": %b}|}
            name prov_name n batch_size jobs runs (1000.0 *. mean)
            (float_of_int batch_size /. mean)
            speedup ok
          :: !results)
      jobs_curve
  in
  let tc = Session.compile tc_src in
  let agg = Session.compile agg_src in
  let tc_n = if m.quick then 120 else 250 in
  measure ~name:"transitive-closure-chain" ~prov_name:"minmaxprob" ~spec:Registry.Max_min_prob
    ~n:tc_n tc
    (Array.init batch_size (chain_sample tc_n));
  measure ~name:"transitive-closure-chain" ~prov_name:"topkproofs-2"
    ~spec:(Registry.Top_k_proofs 2) ~n:60 tc
    (Array.init batch_size (chain_sample 60));
  measure ~name:"aggregation-sum-count" ~prov_name:"minmaxprob" ~spec:Registry.Max_min_prob
    ~n:1600 agg
    (Array.init batch_size (agg_sample ~groups:40 ~per_group:40));
  let oc = open_out "BENCH_batch.json" in
  output_string oc
    (Fmt.str "{\n  \"cores\": %d,\n  \"benchmarks\": [\n"
       (Scallop_utils.Pool.default_jobs ()));
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Fmt.pr "@.  wrote BENCH_batch.json (%d measurements, %d cores available)@."
    (List.length !results)
    (Scallop_utils.Pool.default_jobs ());
  if !bench_failures > 0 then
    Fmt.epr "  %d determinism check(s) FAILED@." !bench_failures

(* ---- resource governance (BENCH_budget.json) --------------------------------------------------- *)

(* Two questions about the budget layer (see lib/core/budget.ml):
   1. Overhead: what do the cooperative checks cost on the 500-chain TC
      workload when a watched budget is active but never exhausted, vs. the
      default (unwatched) config?  The amortized design targets <= 5%.
   2. Enforcement latency: how long after its 1-second deadline does a
      divergent program actually stop?  Must be < 2x the deadline, in both
      sequential and jobs=2 batched execution; a violation bumps
      [bench_failures] and the driver exits nonzero. *)
let bench_budget (m : mode) =
  section "Resource governance: budget overhead + enforcement latency (writes BENCH_budget.json)";
  let open Scallop_core in
  let tc_src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let chain_facts n =
    [
      ( "edge",
        List.init n (fun i ->
            ( Provenance.Input.prob 0.9,
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  let results = ref [] in
  let runs = if m.quick then 3 else 8 in
  (* -- overhead on the 500-chain TC benchmark -------------------------------- *)
  let tc = Session.compile tc_src in
  let facts = chain_facts 500 in
  let time_once ~budget ~spec =
    let config = { (Interp.default_config ()) with Interp.budget } in
    let t0 = Scallop_utils.Monotonic.now () in
    ignore (Session.run ~config ~provenance:(Registry.create spec) tc ~facts ());
    Scallop_utils.Monotonic.now () -. t0
  in
  (* A watched-but-never-exhausted budget: every axis active, all generous. *)
  let watched =
    Budget.make ~timeout:3600.0 ~max_tuples:max_int ~max_node_evals:max_int ()
  in
  (* Interleave base/governed runs: measuring one arm wholly after the other
     biases the later arm by whatever the heap grew to in the meantime. *)
  let interleaved_means ~spec =
    ignore (time_once ~budget:Budget.default ~spec);
    ignore (time_once ~budget:watched ~spec);
    let base = ref 0.0 and governed = ref 0.0 in
    for _ = 1 to runs do
      base := !base +. time_once ~budget:Budget.default ~spec;
      governed := !governed +. time_once ~budget:watched ~spec
    done;
    (!base /. float_of_int runs, !governed /. float_of_int runs)
  in
  List.iter
    (fun (prov_name, spec) ->
      let base, governed = interleaved_means ~spec in
      let overhead_pct = 100.0 *. ((governed /. base) -. 1.0) in
      Fmt.pr "  tc-500 %-12s default %8.2f ms  governed %8.2f ms  overhead %+.2f%%@."
        prov_name (1000.0 *. base) (1000.0 *. governed) overhead_pct;
      Format.pp_print_flush Format.std_formatter ();
      results :=
        Fmt.str
          {|    {"name": "tc-500-overhead", "provenance": %S, "runs": %d, "base_ms": %.3f, "governed_ms": %.3f, "overhead_pct": %.2f}|}
          prov_name runs (1000.0 *. base) (1000.0 *. governed) overhead_pct
        :: !results)
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
    if not (stopped_by_deadline && within) then begin
      incr bench_failures;
      Fmt.epr "  ENFORCEMENT FAILURE: %s stopped_by_deadline=%b elapsed=%.2fs@." name
        stopped_by_deadline elapsed
    end;
    Fmt.pr "  %-28s deadline=%.1fs stopped in %6.2fs %s@." name deadline elapsed
      (if stopped_by_deadline && within then "ok" else "VIOLATION");
    Format.pp_print_flush Format.std_formatter ();
    results :=
      Fmt.str
        {|    {"name": %S, "deadline_s": %.1f, "stopped_s": %.3f, "typed_deadline_error": %b, "within_2x": %b}|}
        name deadline elapsed stopped_by_deadline within
      :: !results
  in
  let t0 = Scallop_utils.Monotonic.now () in
  let outcome =
    try
      ignore
        (Session.run ~config:(config ()) ~provenance:(Registry.create Registry.Boolean) div
           ~facts:seed_facts ());
      Ok ()
    with Session.Error e -> Error e
  in
  check ~name:"divergent-sequential" outcome (Scallop_utils.Monotonic.now () -. t0);
  (* Batched at jobs=2: the divergent sample must come back as a per-sample
     [Error] while its sibling (empty seed: converges instantly) completes. *)
  let batch = [| seed_facts; [ ("seed", []) ] |] in
  let t0 = Scallop_utils.Monotonic.now () in
  let out =
    Session.run_batch ~jobs:2 ~config:(config ())
      ~provenance_of:(fun _ -> Registry.create Registry.Boolean)
      div batch
  in
  let elapsed = Scallop_utils.Monotonic.now () -. t0 in
  let sibling_ok = match out.(1) with Ok _ -> true | Error _ -> false in
  if not sibling_ok then begin
    incr bench_failures;
    Fmt.epr "  ENFORCEMENT FAILURE: sibling sample failed alongside divergent one@."
  end;
  check ~name:"divergent-batch-jobs2"
    (match out.(0) with Ok _ -> Ok () | Error e -> Error e)
    elapsed;
  let oc = open_out "BENCH_budget.json" in
  output_string oc "{\n  \"benchmarks\": [\n";
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Fmt.pr "@.  wrote BENCH_budget.json (%d measurements)@." (List.length !results)

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
  let results = ref [] in
  let fresh_dir name =
    let dir = Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "scallop-bench-resilience-%s-%d" name (Unix.getpid ())) in
    Scallop_utils.Atomic_io.clear ~dir;
    dir
  in
  (* -- 1. checkpoint overhead on MNIST-R sum2 -------------------------------- *)
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
  let ck_dir = fresh_dir "overhead" in
  let plain = Mnist_r.train_and_eval config Mnist.Sum3 in
  let ck = { (Common.checkpoint ck_dir) with Common.every_n_steps } in
  let ckpt = Mnist_r.train_and_eval ~checkpoint:ck config Mnist.Sum3 in
  (* median latency of saving a representative snapshot (an MNIST-sized
     MLP + Adam state, ~40 KB payload) through the full atomic protocol *)
  let median_save_s =
    let rng = Scallop_utils.Rng.create 99 in
    let mlp = Layers.Mlp.create rng [ 16; 64; 10 ] in
    let opt = Optim.adam ~lr:0.01 (Layers.Mlp.params mlp) in
    let payload =
      Common.checkpoint_payload ~done_steps:600 ~losses:[ 0.5; 0.4 ] ~total:0.0 ~opt ~rngs:[]
    in
    let dir = fresh_dir "savelat" in
    let times =
      List.init 15 (fun _ ->
          let t0 = Scallop_utils.Monotonic.now () in
          ignore (Scallop_utils.Atomic_io.save ~dir ~keep:3 payload);
          Scallop_utils.Monotonic.now () -. t0)
    in
    Scallop_utils.Atomic_io.clear ~dir;
    let sorted = List.sort compare times in
    List.nth sorted (List.length sorted / 2)
  in
  let steps_per_epoch = config.Common.n_train in
  let saves_per_epoch = float_of_int steps_per_epoch /. float_of_int every_n_steps in
  let overhead_pct = 100.0 *. saves_per_epoch *. median_save_s /. plain.Common.epoch_time in
  let overhead_ok = overhead_pct <= 5.0 in
  if not overhead_ok then begin
    incr bench_failures;
    Fmt.epr "  OVERHEAD FAILURE: checkpointing costs %+.2f%% of epoch time (budget 5%%)@."
      overhead_pct
  end;
  Fmt.pr
    "  mnist-sum3: plain epoch %6.2fs, %.1f saves/epoch x %.1f ms median save = %.2f%% overhead %s@."
    plain.Common.epoch_time saves_per_epoch (1000.0 *. median_save_s) overhead_pct
    (if overhead_ok then "ok" else "VIOLATION");
  Format.pp_print_flush Format.std_formatter ();
  results :=
    Fmt.str
      {|    {"name": "checkpoint-overhead", "plain_epoch_s": %.4f, "checkpointed_epoch_s": %.4f, "median_save_ms": %.3f, "saves_per_epoch": %.1f, "overhead_pct": %.2f, "within_5pct": %b}|}
      plain.Common.epoch_time ckpt.Common.epoch_time (1000.0 *. median_save_s)
      saves_per_epoch overhead_pct overhead_ok
    :: !results;
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
  let ck_dir = fresh_dir "crash" in
  let ck = { (Common.checkpoint ck_dir) with Common.every_n_steps = 2 } in
  let crashed = make () in
  (try ignore (run ~checkpoint:ck ~crash_at:7 crashed) with Exit -> ());
  let resumed = make () in
  let _, opt2 = resumed in
  let t0 = Scallop_utils.Monotonic.now () in
  let recovered = Common.try_resume ~ck ~opt:opt2 ~rngs:[] in
  let recovery_ms = 1000.0 *. (Scallop_utils.Monotonic.now () -. t0) in
  let recovered_steps = match recovered with Some (s, _, _) -> s | None -> -1 in
  ignore (run ~checkpoint:ck resumed);
  let deterministic = String.equal (params_blob resumed) reference in
  if not deterministic then begin
    incr bench_failures;
    Fmt.epr "  DETERMINISM FAILURE: resumed parameters differ from uninterrupted run@."
  end;
  Fmt.pr "  crash@7/resume: recovered at step %d in %.2f ms, bit-identical params: %b@."
    recovered_steps recovery_ms deterministic;
  results :=
    Fmt.str
      {|    {"name": "crash-resume", "kill_after_steps": 7, "recovered_at_step": %d, "recovery_ms": %.3f, "bit_identical": %b}|}
      recovered_steps recovery_ms deterministic
    :: !results;
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
  if not fallback_ok then begin
    incr bench_failures;
    Fmt.epr "  FALLBACK FAILURE: corrupted newest snapshot was not skipped@."
  end;
  Fmt.pr "  corrupt newest snapshot -> previous generation used: %b@." fallback_ok;
  results :=
    Fmt.str {|    {"name": "corruption-fallback", "previous_generation_used": %b}|} fallback_ok
    :: !results;
  let oc = open_out "BENCH_resilience.json" in
  output_string oc "{\n  \"benchmarks\": [\n";
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Fmt.pr "@.  wrote BENCH_resilience.json (%d measurements)@." (List.length !results)

(* ---- inference service (BENCH_service.json) ---------------------------------------------------- *)

(* The supervised service runtime under load, in two regimes:

   1. baseline: no faults — per-request latency percentiles (p50/p99, which
      include queue wait) and throughput, plus a bit-identity check of
      [Service.submit] against [Session.run_batch] over the same requests
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
  let jobs = min 4 (Scallop_utils.Pool.default_jobs ()) in
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
          edges :=
            ( Provenance.Input.prob (0.05 +. (0.9 *. Rng.float rng)),
              Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ] )
            :: !edges
      done
    done;
    [ ("edge", List.rev !edges) ]
  in
  let batch = Array.init n (sample (Rng.create 17)) in
  let interp = { (Interp.default_config ()) with Interp.rng = Rng.create 3 } in
  let spec = Registry.Max_min_prob in
  let results = ref [] in
  let percentile sorted p =
    let k = Array.length sorted in
    sorted.(min (k - 1) (int_of_float (ceil (p *. float_of_int k)) - 1))
  in
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
    let t0 = Scallop_utils.Monotonic.now () in
    let tickets = Array.map (fun facts -> Service.submit svc ~facts compiled) batch in
    let outcomes = Array.map (Service.await svc) tickets in
    let wall = Scallop_utils.Monotonic.now () -. t0 in
    Service.shutdown svc;
    let s = Service.stats svc in
    let ok =
      Array.fold_left
        (fun acc (o : Service.outcome) ->
          match o.Service.response with Ok _ -> acc + 1 | Error _ -> acc)
        0 outcomes
    in
    if s.Service.completed <> n then begin
      incr bench_failures;
      Fmt.epr "  SERVICE FAILURE (%s): %d/%d terminal outcomes@." name s.Service.completed n
    end;
    (* workers and their replacements are the only domains a service spawns *)
    if
      s.Service.domains_spawned <> jobs + s.Service.respawns
      || s.Service.domains_spawned <> s.Service.domains_joined
    then begin
      incr bench_failures;
      Fmt.epr "  SERVICE FAILURE (%s): domain leak (%d workers, %d respawns, %d spawned, %d joined)@."
        name jobs s.Service.respawns s.Service.domains_spawned s.Service.domains_joined
    end;
    (svc, outcomes, wall, s, ok)
  in

  Fmt.pr "  %d requests, %d workers, provenance %s@.@." n jobs (Registry.spec_name spec);
  (* regime 1: baseline *)
  let _, outcomes, wall, _, ok = run_regime ~name:"baseline" ~chaos:Chaos.none in
  let lat = Array.map (fun (o : Service.outcome) -> o.Service.latency) outcomes in
  Array.sort compare lat;
  let p50 = 1000.0 *. percentile lat 0.50 and p99 = 1000.0 *. percentile lat 0.99 in
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
      | Ok got, Ok want
        when Stdlib.compare got.Session.outputs want.Session.outputs = 0
             && Stdlib.compare got.Session.fact_ids want.Session.fact_ids = 0 ->
          ()
      | _ -> incr divergent)
    outcomes;
  if !divergent > 0 then begin
    incr bench_failures;
    Fmt.epr "  DETERMINISM FAILURE: %d/%d requests diverge from run_batch@." !divergent n
  end
  else Fmt.pr "  determinism: all %d requests bit-identical to run_batch@." n;
  results :=
    Fmt.str
      {|    {"name": "baseline", "requests": %d, "jobs": %d, "ok": %d, "p50_ms": %.3f, "p99_ms": %.3f, "throughput_rps": %.1f, "divergent": %d}|}
      n jobs ok p50 p99 rps !divergent
    :: !results;

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
  let _, _, wall, s, ok = run_regime ~name:"chaos" ~chaos in
  let goodput = float_of_int ok /. wall in
  Fmt.pr
    "  chaos(kill=10%%, stall=10%%): ok=%d/%d  goodput=%.0f req/s  kills=%d stalls=%d \
     retries=%d requeues=%d respawns=%d shed=%d@."
    ok n goodput s.Service.chaos_kills s.Service.chaos_stalls s.Service.retries
    s.Service.requeues s.Service.respawns s.Service.shed;
  results :=
    Fmt.str
      {|    {"name": "chaos", "requests": %d, "jobs": %d, "ok": %d, "goodput_rps": %.1f, "kills": %d, "stalls": %d, "retries": %d, "requeues": %d, "respawns": %d, "shed": %d, "workers_lost": %d}|}
      n jobs ok goodput s.Service.chaos_kills s.Service.chaos_stalls s.Service.retries
      s.Service.requeues s.Service.respawns s.Service.shed s.Service.workers_lost
    :: !results;

  let oc = open_out "BENCH_service.json" in
  output_string oc "{\n  \"benchmarks\": [\n";
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Fmt.pr "@.  wrote BENCH_service.json (%d measurements)@." (List.length !results)

(* ---- stateful sessions (BENCH_incr.json) ---------------------------------------------------------- *)

(* Session overhead: an update batch plus [Incr.query] against
   [Incr.run_cold] on the same facts.  A dirty session query is one cold
   run on the columnar executor, so the two should cost the same; the gate
   keeps the session layer (overlay, canonical fact order, clean-repeat
   cache) negligible next to the run it wraps.  Every round checks the two
   answers bit for bit, and the order of the two timings alternates from
   round to round so host drift hits both alike. *)
let bench_incr (m : mode) =
  section "Stateful sessions: update + query vs a cold run (writes BENCH_incr.json)";
  let open Scallop_core in
  let module Incr = Scallop_incr.Incr in
  let tc_src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let pair a b = Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ] in
  (* bit-exact result equality: same relations, tuples, and output arms,
     floats compared with Float.equal (no tolerance) *)
  let output_equal (a : Provenance.Output.t) (b : Provenance.Output.t) =
    match (a, b) with
    | Provenance.Output.O_prob x, Provenance.Output.O_prob y -> Float.equal x y
    | a, b -> a = b
  in
  let results_equal (a : Session.result) (b : Session.result) =
    List.length a.Session.outputs = List.length b.Session.outputs
    && List.for_all2
         (fun (pa, la) (pb, lb) ->
           String.equal pa pb
           && List.length la = List.length lb
           && List.for_all2
                (fun (ta, oa) (tb, ob) -> Tuple.compare ta tb = 0 && output_equal oa ob)
                la lb)
         a.Session.outputs b.Session.outputs
  in
  let prob_for i = 0.5 +. (float_of_int (i mod 50) /. 100.0) in
  let assert_edge t i = Incr.assert_fact t ~pred:"edge" ~prob:(prob_for i) (pair i (i + 1)) in
  let timed f =
    let t0 = Scallop_utils.Monotonic.now () in
    let x = f () in
    (x, Scallop_utils.Monotonic.now () -. t0)
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  let gate = 1.25 in
  let results = ref [] in
  let worst = ref 0.0 in
  (* One fresh session per row: assert the initial chain and pay the first
     run, then measure the steady state. *)
  let run_row ~prov_name ~spec ~n ~batch ~rounds =
    let t = Incr.open_session ~spec tc_src in
    for i = 0 to n - 1 do
      assert_edge t i
    done;
    ignore (Incr.query t);
    ignore (Incr.run_cold t);
    let tip = ref n in
    let session_s = ref [] and cold_s = ref [] in
    for round = 1 to rounds do
      let (), update_s =
        timed (fun () ->
            for _ = 1 to batch do
              assert_edge t !tip;
              incr tip
            done)
      in
      let query () = timed (fun () -> Incr.query t) in
      let cold () = timed (fun () -> Incr.run_cold t) in
      let (got, query_s), (want, run_s) =
        if round mod 2 = 1 then
          let q = query () in
          (q, cold ())
        else
          let c = cold () in
          (query (), c)
      in
      session_s := (update_s +. query_s) :: !session_s;
      cold_s := run_s :: !cold_s;
      if not (results_equal got want) then begin
        incr bench_failures;
        Fmt.pr "  FAIL: %s batch=%d: session result diverges from the cold run@." prov_name
          batch
      end
    done;
    let session_ms = 1000.0 *. median !session_s and cold_ms = 1000.0 *. median !cold_s in
    let ratio = if cold_ms > 0.0 then session_ms /. cold_ms else infinity in
    worst := Float.max !worst ratio;
    Fmt.pr "  %-12s n=%-4d batch=%-3d rounds=%-3d session %8.3f ms  cold %8.3f ms  %5.2fx %s@."
      prov_name n batch rounds session_ms cold_ms ratio
      (if ratio <= gate then "ok" else "VIOLATION");
    Format.pp_print_flush Format.std_formatter ();
    if ratio > gate then begin
      incr bench_failures;
      Fmt.pr "  FAIL: %s batch=%d: session/cold %.2fx is above the %.2fx gate@." prov_name
        batch ratio gate
    end;
    results :=
      Fmt.str
        {|    {"workload": "tc-chain-extend", "provenance": %S, "n": %d, "batch": %d, "rounds": %d, "session_median_ms": %.3f, "cold_median_ms": %.3f, "session_over_cold": %.3f}|}
        prov_name n batch rounds session_ms cold_ms ratio
      :: !results;
    Incr.close t
  in
  let n = if m.quick then 300 else 500 in
  let rounds = if m.quick then 8 else 12 in
  List.iter
    (fun (prov_name, spec) ->
      List.iter (fun batch -> run_row ~prov_name ~spec ~n ~batch ~rounds) [ 1; 8; 64 ])
    [ ("boolean", Registry.Boolean); ("minmaxprob", Registry.Max_min_prob) ];
  run_row ~prov_name:"topkproofs-3" ~spec:(Registry.Top_k_proofs 3) ~n:60 ~batch:1 ~rounds;
  let oc = open_out "BENCH_incr.json" in
  output_string oc
    (Fmt.str "{\n  \"cores\": %d,\n  \"ocaml\": %S,\n  \"benchmarks\": [\n"
       (Domain.recommended_domain_count ()) Sys.ocaml_version);
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ],\n";
  output_string oc
    (Fmt.str "  \"session_over_cold_max\": %.3f,\n  \"session_over_cold_gate\": %.2f\n}\n"
       !worst gate);
  close_out oc;
  Fmt.pr "@.  worst session/cold %.2fx (gate %.2fx); wrote BENCH_incr.json (%d rows)@." !worst
    gate (List.length !results)

(* ---- durable sessions (BENCH_durability.json) -------------------------------------------------- *)

(* Durability tax and recovery cost of [Durable] sessions:

   1. WAL overhead: single-fact update rounds (assert + query) on a TC
      chain, an ephemeral registry vs a durable one with fsync'd
      write-ahead logging.  Acceptance gate: the durable path costs at
      most 10% more than the ephemeral path (bump [bench_failures]).
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
  let module Durable = Scallop_incr.Durable in
  let tc_src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let pair a b = Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ] in
  let output_equal (a : Provenance.Output.t) (b : Provenance.Output.t) =
    match (a, b) with
    | Provenance.Output.O_prob x, Provenance.Output.O_prob y -> Float.equal x y
    | a, b -> a = b
  in
  let results_equal (a : Session.result) (b : Session.result) =
    List.length a.Session.outputs = List.length b.Session.outputs
    && List.for_all2
         (fun (pa, la) (pb, lb) ->
           String.equal pa pb
           && List.length la = List.length lb
           && List.for_all2
                (fun (ta, oa) (tb, ob) -> Tuple.compare ta tb = 0 && output_equal oa ob)
                la lb)
         a.Session.outputs b.Session.outputs
  in
  let rec rm_rf path =
    match Sys.is_directory path with
    | exception Sys_error _ -> ()
    | true ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        (try Sys.rmdir path with Sys_error _ -> ())
    | false -> ( try Sys.remove path with Sys_error _ -> ())
  in
  let scratch name =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "scallop-bench-durability-%d-%s" (Unix.getpid ()) name)
    in
    rm_rf d;
    d
  in
  let n = if m.quick then 300 else 500 in
  let rounds = if m.quick then 30 else 60 in
  let results = ref [] in
  (* one update round = assert one chain-extending edge, then query *)
  let run_updates ~state_dir =
    let cfg =
      match state_dir with
      | None -> Durable.config Registry.Boolean
      | Some dir -> Durable.config ~state_dir:dir Registry.Boolean
    in
    let mgr = Durable.create cfg in
    let _ = Durable.open_session mgr ~sid:"b" tc_src in
    for i = 0 to n - 1 do
      Durable.assert_fact mgr ~sid:"b" ~pred:"edge" (pair i (i + 1))
    done;
    ignore (Durable.query mgr ~sid:"b" ());
    let tip = ref n in
    let t0 = Scallop_utils.Monotonic.now () in
    for _ = 1 to rounds do
      Durable.assert_fact mgr ~sid:"b" ~pred:"edge" (pair !tip (!tip + 1));
      incr tip;
      ignore (Durable.query mgr ~sid:"b" ())
    done;
    let mean = (Scallop_utils.Monotonic.now () -. t0) /. float_of_int rounds in
    (mgr, mean)
  in
  let plain_mgr, plain_mean = run_updates ~state_dir:None in
  ignore (Durable.close plain_mgr ~sid:"b");
  let sd = scratch "wal" in
  let durable_mgr, durable_mean = run_updates ~state_dir:(Some sd) in
  let reference = Durable.query durable_mgr ~sid:"b" () in
  let w = Durable.stats durable_mgr in
  (* abandon without close: the on-disk state is a crash image *)
  Durable.shutdown durable_mgr;
  let overhead_pct = 100.0 *. ((durable_mean /. plain_mean) -. 1.0) in
  Fmt.pr
    "  TC-%d single-fact rounds: ephemeral %8.3f ms  durable %8.3f ms  overhead %+.1f%%@." n
    (1000.0 *. plain_mean) (1000.0 *. durable_mean) overhead_pct;
  Fmt.pr "  wal: %d appends, %d bytes, %d snapshots@." w.Durable.wal_appends
    w.Durable.wal_bytes w.Durable.snapshots;
  if overhead_pct > 10.0 then begin
    incr bench_failures;
    Fmt.pr "  FAIL: WAL overhead %.1f%% exceeds the 10%% gate@." overhead_pct
  end;
  results :=
    Fmt.str
      {|    {"workload": "tc-chain-extend", "n": %d, "rounds": %d, "ephemeral_mean_ms": %.3f, "durable_mean_ms": %.3f, "wal_overhead_pct": %.2f, "wal_appends": %d, "wal_bytes": %d, "snapshots": %d}|}
      n rounds (1000.0 *. plain_mean) (1000.0 *. durable_mean) overhead_pct
      w.Durable.wal_appends w.Durable.wal_bytes w.Durable.snapshots
    :: !results;
  (* recovery: rebuild from snapshot + replay, answer must be bit-identical *)
  let t0 = Scallop_utils.Monotonic.now () in
  let mgr2 = Durable.create (Durable.config ~state_dir:sd Registry.Boolean) in
  let recovery_ms = 1000.0 *. (Scallop_utils.Monotonic.now () -. t0) in
  let r = Durable.stats mgr2 in
  let recovered_answer = Durable.query mgr2 ~sid:"b" () in
  if not (results_equal recovered_answer reference) then begin
    incr bench_failures;
    Fmt.pr "  FAIL: recovered session diverges from the pre-crash answer@."
  end;
  Durable.shutdown mgr2;
  Fmt.pr "  recovery: %.3f ms (%d session, %d ops replayed, snapshot + bounded replay)@."
    recovery_ms r.Durable.recovered r.Durable.wal_replayed;
  results :=
    Fmt.str
      {|    {"workload": "recovery", "n": %d, "recovery_ms": %.3f, "sessions_recovered": %d, "ops_replayed": %d}|}
      n recovery_ms r.Durable.recovered r.Durable.wal_replayed
    :: !results;
  (* kill-point sweep over the active segment *)
  let sdir = Filename.concat (Filename.concat sd "sessions") "s-b" in
  let seg =
    Sys.readdir sdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".log")
    |> List.sort compare |> List.rev |> List.hd |> Filename.concat sdir
  in
  let raw =
    let ic = open_in_bin seg in
    let d = In_channel.input_all ic in
    close_in ic;
    d
  in
  let cuts = if m.quick then 16 else 64 in
  let sweep_total = ref 0.0 and sweep_max = ref 0.0 and sweep_ok = ref 0 in
  for k = 0 to cuts - 1 do
    let cut = String.length raw * k / cuts in
    let oc = open_out_bin seg in
    output_string oc (String.sub raw 0 cut);
    close_out oc;
    let t0 = Scallop_utils.Monotonic.now () in
    match Durable.create (Durable.config ~state_dir:sd Registry.Boolean) with
    | exception e ->
        incr bench_failures;
        Fmt.pr "  FAIL: cut at byte %d crashed recovery: %s@." cut (Printexc.to_string e)
    | mgr ->
        let dt = 1000.0 *. (Scallop_utils.Monotonic.now () -. t0) in
        sweep_total := !sweep_total +. dt;
        if dt > !sweep_max then sweep_max := dt;
        let st = Durable.stats mgr in
        if st.Durable.recovery_failures > 0 then begin
          incr bench_failures;
          Fmt.pr "  FAIL: cut at byte %d quarantined the session (torn tail must recover)@."
            cut
        end
        else begin
          let got = Durable.query mgr ~sid:"b" () in
          let cold = Durable.run_cold mgr ~sid:"b" () in
          if results_equal got cold then incr sweep_ok
          else begin
            incr bench_failures;
            Fmt.pr "  FAIL: cut at byte %d diverges from the cold oracle@." cut
          end
        end;
        Durable.shutdown mgr
  done;
  let oc = open_out_bin seg in
  output_string oc raw;
  close_out oc;
  Fmt.pr "  kill-point sweep: %d/%d cuts recovered bit-identically (mean %.3f ms, max %.3f ms)@."
    !sweep_ok cuts
    (!sweep_total /. float_of_int cuts)
    !sweep_max;
  results :=
    Fmt.str
      {|    {"workload": "kill-point-sweep", "cuts": %d, "recovered_identical": %d, "recovery_mean_ms": %.3f, "recovery_max_ms": %.3f}|}
      cuts !sweep_ok
      (!sweep_total /. float_of_int cuts)
      !sweep_max
    :: !results;
  rm_rf sd;
  (* group commit: concurrent writers to one session share fsync batches.
     Four domains drive fsync'd asserts into the same session (disjoint
     edge chains), so one batching leader settles several appends to the
     session's WAL per fsync; the sync count landing below the append
     count is the acceptance gate. *)
  let module Wal = Scallop_utils.Wal in
  let gd = scratch "group" in
  let gmgr =
    Durable.create
      (Durable.config ~state_dir:gd ~group_commit:true ~group_window:0.0005
         Registry.Boolean)
  in
  let writers = 4 and per = if m.quick then 100 else 250 in
  ignore (Durable.open_session gmgr ~sid:"g" tc_src);
  let t0 = Scallop_utils.Monotonic.now () in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let v = (w * 1000) + i in
              Durable.assert_fact gmgr ~sid:"g" ~pred:"edge" (pair v (v + 1))
            done))
  in
  List.iter Domain.join domains;
  let group_dt = Scallop_utils.Monotonic.now () -. t0 in
  let syncs, appends =
    match gmgr.Durable.wal_group with Some g -> Wal.Group.stats g | None -> (0, 0)
  in
  Durable.shutdown gmgr;
  rm_rf gd;
  let per_op_us = 1e6 *. group_dt /. float_of_int (writers * per) in
  Fmt.pr
    "  group commit: %d writers x %d fsync'd asserts in %.3f s (%.1f us/op), %d fsyncs \
     for %d appends (%.2f appends/fsync)@."
    writers per group_dt per_op_us syncs appends
    (float_of_int appends /. float_of_int (max 1 syncs));
  if syncs >= appends then begin
    incr bench_failures;
    Fmt.pr "  FAIL: group commit did not amortize (%d fsyncs for %d appends)@." syncs appends
  end;
  results :=
    Fmt.str
      {|    {"workload": "group-commit", "writers": %d, "ops_per_writer": %d, "per_op_us": %.1f, "fsyncs": %d, "appends": %d, "appends_per_fsync": %.2f}|}
      writers per per_op_us syncs appends
      (float_of_int appends /. float_of_int (max 1 syncs))
    :: !results;
  let oc = open_out "BENCH_durability.json" in
  output_string oc "{\n  \"benchmarks\": [\n";
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ],\n";
  output_string oc
    (Fmt.str "  \"wal_overhead_pct\": %.2f,\n  \"wal_overhead_gate_pct\": 10.0\n}\n"
       overhead_pct);
  close_out oc;
  Fmt.pr "@.  wrote BENCH_durability.json (%d measurements)@." (List.length !results)

(* ---- replicated durable sessions (BENCH_replication.json) -------------------------------------- *)

(* Cost and latency of WAL shipping ([Replica] over [Durable]):

   1. Acked-write overhead: single-fact update rounds (assert + query) on
      a TC-300 chain, a local-fsync durable session vs a primary whose
      every write blocks on a quorum acknowledgement from a live
      follower.  Acceptance gate: quorum acking costs at most 25% over
      the local-fsync path (bump [bench_failures]).
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
  let module Durable = Scallop_incr.Durable in
  let module Replica = Scallop_incr.Replica in
  let tc_src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let pair a b = Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ] in
  let output_equal (a : Provenance.Output.t) (b : Provenance.Output.t) =
    match (a, b) with
    | Provenance.Output.O_prob x, Provenance.Output.O_prob y -> Float.equal x y
    | a, b -> a = b
  in
  let results_equal (a : Session.result) (b : Session.result) =
    List.length a.Session.outputs = List.length b.Session.outputs
    && List.for_all2
         (fun (pa, la) (pb, lb) ->
           String.equal pa pb
           && List.length la = List.length lb
           && List.for_all2
                (fun (ta, oa) (tb, ob) -> Tuple.compare ta tb = 0 && output_equal oa ob)
                la lb)
         a.Session.outputs b.Session.outputs
  in
  let rec rm_rf path =
    match Sys.is_directory path with
    | exception Sys_error _ -> ()
    | true ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        (try Sys.rmdir path with Sys_error _ -> ())
    | false -> ( try Sys.remove path with Sys_error _ -> ())
  in
  let scratch name =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "scallop-bench-replication-%d-%s" (Unix.getpid ()) name)
    in
    rm_rf d;
    d
  in
  let n = 300 in
  let rounds = if m.quick then 30 else 60 in
  let results = ref [] in
  let seed_and_time mgr =
    let _ = Durable.open_session mgr ~sid:"b" tc_src in
    for i = 0 to n - 1 do
      Durable.assert_fact mgr ~sid:"b" ~pred:"edge" (pair i (i + 1))
    done;
    ignore (Durable.query mgr ~sid:"b" ());
    let tip = ref n in
    let t0 = Scallop_utils.Monotonic.now () in
    for _ = 1 to rounds do
      Durable.assert_fact mgr ~sid:"b" ~pred:"edge" (pair !tip (!tip + 1));
      incr tip;
      ignore (Durable.query mgr ~sid:"b" ())
    done;
    (Scallop_utils.Monotonic.now () -. t0) /. float_of_int rounds
  in
  (* baseline: local fsync'd WAL, no replication *)
  let sd = scratch "local" in
  let local_mgr = Durable.create (Durable.config ~state_dir:sd Registry.Boolean) in
  let local_mean = seed_and_time local_mgr in
  Durable.shutdown local_mgr;
  rm_rf sd;
  (* quorum cluster: every write blocks on a live follower's ack.  The
     follower runs in-process, driven by the primary's barrier through the
     pump hook — the measured wait is apply + local log + ack, not a poll
     interval. *)
  let root = scratch "quorum" in
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
  let quorum_mean = seed_and_time pmgr in
  let overhead_pct = 100.0 *. ((quorum_mean /. local_mean) -. 1.0) in
  let pst = Replica.Primary.status prim in
  Fmt.pr
    "  TC-%d single-fact rounds: local-fsync %8.3f ms  quorum-acked %8.3f ms  overhead \
     %+.1f%%@."
    n (1000.0 *. local_mean) (1000.0 *. quorum_mean) overhead_pct;
  Fmt.pr "  replication lag (commit -> quorum ack): mean %.3f ms  max %.3f ms  (%d barriers)@."
    pst.Replica.Primary.st_mean_barrier_ms pst.st_max_barrier_ms pst.st_barriers;
  if overhead_pct > 25.0 then begin
    incr bench_failures;
    Fmt.pr "  FAIL: quorum-ack overhead %.1f%% exceeds the 25%% gate@." overhead_pct
  end;
  results :=
    Fmt.str
      {|    {"workload": "tc-chain-extend", "n": %d, "rounds": %d, "local_fsync_mean_ms": %.3f, "quorum_mean_ms": %.3f, "quorum_overhead_pct": %.2f, "lag_mean_ms": %.3f, "lag_max_ms": %.3f, "frames_shipped": %d}|}
      n rounds (1000.0 *. local_mean) (1000.0 *. quorum_mean) overhead_pct
      pst.Replica.Primary.st_mean_barrier_ms pst.st_max_barrier_ms pst.st_shipped
    :: !results;
  (* failover: promote the caught-up follower, answers must be bit-identical *)
  let reference = Durable.query pmgr ~sid:"b" () in
  let t0 = Scallop_utils.Monotonic.now () in
  let _epoch = Replica.Follower.promote fol in
  let promote_ms = 1000.0 *. (Scallop_utils.Monotonic.now () -. t0) in
  let promoted_answer = Durable.query fmgr ~sid:"b" () in
  if not (results_equal promoted_answer reference) then begin
    incr bench_failures;
    Fmt.pr "  FAIL: promoted follower diverges from the primary's answer@."
  end;
  let fst_ = Replica.Follower.status fol in
  Fmt.pr "  failover: promoted in %.3f ms (%d frames applied, %d divergences)@." promote_ms
    fst_.Replica.Follower.st_applied fst_.st_divergences;
  results :=
    Fmt.str
      {|    {"workload": "failover", "promote_ms": %.3f, "frames_applied": %d, "divergences": %d}|}
      promote_ms fst_.Replica.Follower.st_applied fst_.st_divergences
    :: !results;
  Durable.shutdown pmgr;
  Durable.shutdown fmgr;
  Replica.Primary.close prim;
  Replica.Follower.close fol;
  rm_rf root;
  (* async catch-up: a follower draining a burst it never saw land *)
  let root2 = scratch "async" in
  let ship2 = Filename.concat root2 "ship" in
  let prim2 =
    Replica.Primary.create ~dir:ship2 ~id:"alpha" ~ack:Replica.Ack_async ()
  in
  let pmgr2 =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root2 "p")
         ~repl:(Replica.Primary.sink prim2) Registry.Boolean)
  in
  let _ = Durable.open_session pmgr2 ~sid:"b" tc_src in
  for i = 0 to n - 1 do
    Durable.assert_fact pmgr2 ~sid:"b" ~pred:"edge" (pair i (i + 1))
  done;
  let fmgr2 =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root2 "f") Registry.Boolean)
  in
  let fol2 = Replica.Follower.create ~dir:ship2 ~fid:"beta" ~mgr:fmgr2 () in
  let t0 = Scallop_utils.Monotonic.now () in
  while Replica.Follower.poll fol2 > 0 do
    ()
  done;
  let catchup_s = Scallop_utils.Monotonic.now () -. t0 in
  let fst2 = Replica.Follower.status fol2 in
  let frames = fst2.Replica.Follower.st_applied + fst2.st_installs + fst2.st_adoptions in
  Fmt.pr "  async catch-up: %d-op burst drained in %.3f ms (%.0f frames/s)@." n
    (1000.0 *. catchup_s)
    (float_of_int (max 1 frames) /. Float.max 1e-9 catchup_s);
  results :=
    Fmt.str
      {|    {"workload": "async-catchup", "burst_ops": %d, "catchup_ms": %.3f, "frames_per_s": %.0f}|}
      n (1000.0 *. catchup_s)
      (float_of_int (max 1 frames) /. Float.max 1e-9 catchup_s)
    :: !results;
  Durable.shutdown pmgr2;
  Durable.shutdown fmgr2;
  Replica.Primary.close prim2;
  Replica.Follower.close fol2;
  rm_rf root2;
  let oc = open_out "BENCH_replication.json" in
  output_string oc "{\n  \"benchmarks\": [\n";
  output_string oc (String.concat ",\n" (List.rev !results));
  output_string oc "\n  ],\n";
  output_string oc
    (Fmt.str "  \"quorum_overhead_pct\": %.2f,\n  \"quorum_overhead_gate_pct\": 25.0\n}\n"
       overhead_pct);
  close_out oc;
  Fmt.pr "@.  wrote BENCH_replication.json (%d measurements)@." (List.length !results)

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
