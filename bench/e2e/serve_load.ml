(** The subprocess pass of the three serve workloads: real [scallop serve]
    processes driven over their stdin/stdout protocol. *)

let now = Client.now

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc e -> acc + du (Filename.concat path e)) 0 (Sys.readdir path)
  | st -> st.Unix.st_size

let serve_args ~prov extra = [ "serve"; "-p"; prov; "--jobs"; "1" ] @ extra

(** What one subprocess pass measured. *)
type pass = {
  res : Client.result;  (** the measured phase *)
  setups : float list;  (** seconds, one per set-up *)
  rss_kb : int;  (** [VmHWM] of the serving (primary) process *)
  setup_writes : int;
  disk_bytes : int;  (** primary state dir + ship log at the end; quorum only *)
  recovery_s : float;  (** restart → every tenant answered; quorum only *)
  recovery : Client.result;  (** the post-restart queries; quorum only *)
}

let log_fail (op : Gen.op) (r : Client.reply) =
  Printf.eprintf "e2e: FAILED %s -> %s %s (%d rows)\n%!"
    (if String.length op.Gen.line > 120 then String.sub op.Gen.line 0 120 ^ "..." else op.Gen.line)
    (if r.Client.ok then "ok" else "error")
    r.Client.status (List.length r.Client.rows)

let setup_window = 32

(** Set up [setups] times (spawn through seeding), shutting every set-up
    but the last down cleanly: the last set-up and each one's duration. *)
let repeat_setup ~setups (setup : unit -> 'a) (teardown : 'a -> unit) : 'a * float list =
  let rec go i acc =
    let t0 = now () in
    let s = setup () in
    let acc = (now () -. t0) :: acc in
    if i >= setups then (s, List.rev acc)
    else begin
      teardown s;
      go (i + 1) acc
    end
  in
  go 1 []

let check_setup (r : Client.result) =
  if r.Client.failed > 0 then raise (Client.Died "set-up requests failed")

(** [sessions-maintain] and [sessions-quorum]. *)
let sessions ~exe ~work ~(cfg : Gen.sessions) ~quorum ~window ~seed ~seconds ~setups : pass =
  let dir name = Filename.concat work name in
  let log = dir "serve.log" in
  let prim_dir = dir "primary" and ship = dir "ship" and fol_dir = dir "follower" in
  let setup () =
    List.iter rm_rf [ prim_dir; ship; fol_dir ];
    let procs =
      if quorum then begin
        let p =
          Client.spawn ~exe ~log
            ~args:
              (serve_args ~prov:"minmaxprob"
                 [
                   "--state-dir"; prim_dir; "--repl-ship"; ship; "--repl-id"; "alpha"; "--repl-ack";
                   "quorum"; "--repl-followers"; "1";
                 ])
        in
        let f =
          Client.spawn ~exe ~log
            ~args:
              (serve_args ~prov:"minmaxprob"
                 [ "--state-dir"; fol_dir; "--repl-follow"; ship; "--repl-id"; "beta" ])
        in
        (p, Some f)
      end
      else (Client.spawn ~exe ~log ~args:(serve_args ~prov:"minmaxprob" []), None)
    in
    let g = Gen.session_gen cfg ~seed in
    let r = Client.empty_result () in
    Client.closed_loop ~on_fail:log_fail (fst procs) ~window:setup_window
      ~next:(Client.ops_of_list (Gen.session_setup g))
      ~stop:(fun () -> false) r;
    check_setup r;
    (procs, g, r.Client.writes)
  in
  let teardown ((p, f), _, _) =
    Client.finish p;
    Option.iter Client.finish f
  in
  let ((prim, fol), g, setup_writes), setup_times = repeat_setup ~setups setup teardown in
  let res = Client.empty_result () in
  let deadline = now () +. seconds in
  Client.closed_loop ~on_fail:log_fail prim ~window
    ~next:(fun () -> Some (Gen.session_next g))
    ~stop:(fun () -> now () >= deadline)
    res;
  let rss_kb = Client.vm_hwm_kb prim.Client.pid in
  let pass =
    {
      res;
      setups = setup_times;
      rss_kb;
      setup_writes;
      disk_bytes = 0;
      recovery_s = 0.0;
      recovery = Client.empty_result ();
    }
  in
  if not quorum then begin
    Client.finish prim;
    pass
  end
  else begin
    let disk_bytes = du prim_dir + du ship in
    (* Every write above was quorum-acknowledged; kill without warning and
       recover from the state dir alone. *)
    Client.sigkill prim;
    let t0 = now () in
    let again =
      Client.spawn ~exe ~log ~args:(serve_args ~prov:"minmaxprob" [ "--state-dir"; prim_dir ])
    in
    Client.closed_loop ~on_fail:log_fail again ~window:cfg.Gen.tenants
      ~next:(Client.ops_of_list (Array.to_list (Array.map (Gen.query_op g) g.Gen.ts)))
      ~stop:(fun () -> false) pass.recovery;
    let recovery_s = now () -. t0 in
    Client.finish again;
    Option.iter Client.finish fol;
    { pass with disk_bytes; recovery_s }
  end

(** [oneshot-mixed]: legacy one-shot lines, each a whole program. *)
let oneshot ~exe ~work ~(cfg : Gen.oneshot) ~warmup ~seed ~seconds ~setups : pass =
  let log = Filename.concat work "serve.log" in
  let setup () =
    let p = Client.spawn ~exe ~log ~args:(serve_args ~prov:"boolean" []) in
    let rng = Prng.create ~seed ~stream:2 in
    let r = Client.empty_result () in
    Client.closed_loop ~on_fail:log_fail p ~window:1
      ~next:(Client.ops_of_list (List.init warmup (fun _ -> Gen.oneshot_next rng cfg)))
      ~stop:(fun () -> false) r;
    check_setup r;
    (p, rng)
  in
  let (p, rng), setup_times = repeat_setup ~setups setup (fun (p, _) -> Client.finish p) in
  let res = Client.empty_result () in
  let deadline = now () +. seconds in
  Client.closed_loop ~on_fail:log_fail p ~window:1
    ~next:(fun () -> Some (Gen.oneshot_next rng cfg))
    ~stop:(fun () -> now () >= deadline)
    res;
  let rss_kb = Client.vm_hwm_kb p.Client.pid in
  Client.finish p;
  {
    res;
    setups = setup_times;
    rss_kb;
    setup_writes = 0;
    disk_bytes = 0;
    recovery_s = 0.0;
    recovery = Client.empty_result ();
  }
