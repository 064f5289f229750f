(** The [scallop serve] request loop, as a library.

    {!create} takes what a server is built from: the {!Service} that runs
    queries, the {!Scallop_incr.Durable} session registry, an optional
    replication role, and a sink that receives each reply as one string.
    {!handle} answers one request as {!Protocol.read_request} returns it;
    {!close} stops the server's threads and drains the replies still
    owed.  [scallop serve] feeds it the lines of stdin; tests and
    [bench server] drive it in process.

    Protocol: one request per line ([;] separates items within a line).
    Replies stream to the sink in request order: zero or more
    [out <id> ...] rows, then exactly one [done <id> ok|error ...] status
    line per request.  Per-request failures are replies, not a process
    failure.

    A line starting with a stateful verb drives a stateful session
    instead of a one-shot query:

      open <sid> [hash=<hex>] <program>   compile (shared plan cache) + open
      assert <sid> [<prob>::]<pred>(<args>)
      retract <sid> <pred>(<args>)
      query <sid> [<rel> ...]             rows + done, via the worker pool
      close <sid>
      stats                               plan-cache / WMC / session counters

    Updates apply in line order; anything else is the legacy one-shot
    path.  A session query takes its snapshot on the request loop and a
    worker evaluates it, so it answers exactly the writes sent before it.
    An open, assert, retract or close commits on the request loop and is
    acknowledged by the printer: its [done ... ok] waits there for the
    write's group fsync and replication barrier, so the loop reads the
    next line meanwhile and writes in flight share one fsync and one
    follower ack; at most the service's [queue_depth] writes wait for
    their acknowledgement at once.  The session registry itself
    (recovery from a state dir, WAL-before-apply commit, idle eviction)
    lives in [Durable]. *)

open Scallop_core
module Durable = Scallop_incr.Durable
module Incr = Scallop_incr.Incr
module Replica = Scallop_incr.Replica

(* What request [n] is owed: rendered lines, or a wait that renders them
   when it ends — a query still running, or a committed write still
   waiting for its acknowledgement.  A wait that raises is answered as a
   failed request. *)
type reply = Lines of string list | Later of (Format.formatter -> unit)

type t = {
  svc : Service.t;
  dmgr : Durable.t;
  primary : Replica.Primary.t option;
  follower : Replica.Follower.t option;
  base : string;  (** prefixed to every opened and one-shot program *)
  mutable next : int;  (** id of the next request *)
  m : Mutex.t;
  cond : Condition.t;
  replies : (int * reply) Queue.t;  (** owed to the sink, oldest first *)
  mutable owed : int;  (** writes committed and not yet acknowledged *)
  mutable eof : bool;
  fatal : exn option Atomic.t;  (** what stopped the printer, re-raised by {!handle} *)
  stop : bool Atomic.t;
  helpers : Thread.t list;  (** the replication role's loops *)
  mutable printer : Thread.t option;
}

(* ---- threads ---------------------------------------------------------------------- *)

(* Replication roles.  A primary ships every durable update into the ship
   log (via the repl sink wired into [Durable]) and heartbeats; a
   follower's registry starts as a standby and a poller tails the ship
   log into it.  Like the printer below, these helper loops are threads
   on the domain that called [create]: the only domains are the service's
   workers, since every extra domain joins each stop-the-world minor
   GC. *)
let heartbeat_loop stop p =
  while not (Atomic.get stop) do
    Replica.Primary.heartbeat p;
    Unix.sleepf 0.25
  done

let poll_loop stop auto_promote f =
  let auto_promoted = ref false in
  while not (Atomic.get stop) do
    (try if Replica.Follower.poll f = 0 then Unix.sleepf 0.002 with _ -> Unix.sleepf 0.01);
    match auto_promote with
    | Some ttl when not !auto_promoted -> (
        match Replica.Follower.primary_age f with
        | Some age when age > ttl ->
            (try
               let e = Replica.Follower.promote f in
               Fmt.epr "repl: primary heartbeat stale (%.1fs); promoted to epoch %d@." age e
             with Session.Error _ -> () (* promoted by hand already *));
            auto_promoted := true
        | _ -> ())
    | _ -> ()
  done

let error_lines n e = [ Fmt.str "done %d error %s" n (Session.error_string e) ]

(* How request [n] answers a failure: a typed error reply.
   [Stack_overflow] and [Out_of_memory] stay fatal, because the process
   state is suspect. *)
let failure_lines n = function
  | Session.Error e -> error_lines n e
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | exn -> error_lines n (Exec_error.Runtime_error { msg = "internal: " ^ Printexc.to_string exn })

(* The printer thread is the only caller of [sink], and it runs each
   deferred reply in request order.  Each reply is rendered into [out] and
   handed over once, so an 80-row reply costs one write rather than one
   per row.  What stops it — a fatal failure, or a sink that raises — is
   re-raised on the request loop. *)
let print_loop t sink =
  let out = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer out in
  let print lines = List.iter (fun l -> Fmt.pf ppf "%s@." l) lines in
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.replies && not t.eof do
      Condition.wait t.cond t.m
    done;
    let item = Queue.take_opt t.replies in
    Mutex.unlock t.m;
    match item with
    | None -> ()
    | Some (n, reply) ->
        (match reply with
        | Lines lines -> print lines
        | Later render -> (
            try render ppf
            with e ->
              Format.pp_print_flush ppf ();
              Buffer.clear out;
              print (failure_lines n e)));
        sink (Buffer.contents out);
        Buffer.clear out;
        loop ()
  in
  try loop ()
  with e ->
    Atomic.set t.fatal (Some e);
    Mutex.protect t.m (fun () -> Condition.broadcast t.cond)

(* A query's reply, once its ticket is done. *)
let render_ticket svc n ticket ppf =
  let o = Service.await svc ticket in
  let rung = Registry.spec_name o.Service.rung in
  let ms = 1000.0 *. o.Service.latency in
  match o.Service.response with
  | Ok result ->
      List.iter
        (fun (pred, rows) ->
          List.iter
            (fun (tuple, tag) ->
              Fmt.pf ppf "out %d %a::%s%a@." n Provenance.Output.pp tag pred Tuple.pp tuple)
            rows)
        result.Session.outputs;
      Fmt.pf ppf "done %d ok rung=%s attempts=%d ms=%.1f@." n rung o.Service.attempts ms
  | Error e ->
      Fmt.pf ppf "done %d error rung=%s attempts=%d %s@." n rung o.Service.attempts
        (Session.error_string e)

(* A committed write's reply: the [lines] of what [ack] returns, once it
   returns.  The write is owed an acknowledgement until then. *)
let acknowledged t ack lines =
  Mutex.protect t.m (fun () -> t.owed <- t.owed + 1);
  let settled () =
    Mutex.protect t.m (fun () ->
        t.owed <- t.owed - 1;
        Condition.broadcast t.cond)
  in
  Later (fun ppf -> List.iter (Fmt.pf ppf "%s@.") (lines (Fun.protect ~finally:settled ack)))

(* Before a write commits: once [queue_depth] writes are owed an
   acknowledgement, wait for the oldest, so a client that pipelines
   writes feels backpressure and the replies owed stay bounded.  What
   stopped the printer, which settles them, is re-raised instead. *)
let await_room t =
  Mutex.protect t.m (fun () ->
      let bound = max 1 t.svc.Service.config.Service.queue_depth in
      while t.owed >= bound && Atomic.get t.fatal = None do
        Condition.wait t.cond t.m
      done);
  Option.iter raise (Atomic.get t.fatal)

(** A server over [svc] and [dmgr], replying to [sink].  [base] is
    prefixed to every program; a [primary] heartbeats and a [follower]
    tails its ship log on threads of their own, the follower promoting
    itself once the primary's heartbeat is [auto_promote] seconds old.
    The caller keeps ownership of [svc], [dmgr] and the role: {!close}
    leaves them open. *)
let create ?(base = "") ?auto_promote ?primary ?follower ~sink svc dmgr =
  let stop = Atomic.make false in
  let heartbeat = Option.map (Thread.create (heartbeat_loop stop)) primary in
  let poller = Option.map (Thread.create (poll_loop stop auto_promote)) follower in
  let t =
    {
      svc;
      dmgr;
      primary;
      follower;
      base;
      next = 0;
      m = Mutex.create ();
      cond = Condition.create ();
      replies = Queue.create ();
      owed = 0;
      eof = false;
      fatal = Atomic.make None;
      stop;
      helpers = Option.to_list poller @ Option.to_list heartbeat;
      printer = None;
    }
  in
  t.printer <- Some (Thread.create (print_loop t) sink);
  t

(* ---- dispatch --------------------------------------------------------------------- *)

let push t n reply =
  Mutex.lock t.m;
  Queue.push (n, reply) t.replies;
  Condition.signal t.cond;
  Mutex.unlock t.m

let lookup t sid =
  if not (Durable.exists t.dmgr ~sid) then Session.invalid_input "unknown session %s" sid

let unquote line = String.map (fun c -> if c = ';' then '\n' else c) line

let repl_status_lines t n =
  match (t.primary, t.follower) with
  | Some p, _ ->
      let s = Replica.Primary.status p in
      Fmt.str
        "out %d repl role=primary id=%s epoch=%d ack=%s seg=%d frames=%d shipped=%d \
         rotations=%d barriers=%d lag-mean-ms=%.3f lag-max-ms=%.3f fenced=%s"
        n p.Replica.Primary.id s.Replica.Primary.st_epoch
        (Replica.ack_mode_string p.Replica.Primary.ack)
        s.st_seg s.st_frames s.st_shipped s.st_rotations s.st_barriers s.st_mean_barrier_ms
        s.st_max_barrier_ms
        (match s.st_fenced with Some e -> string_of_int e | None -> "no")
      :: List.map
           (fun (fid, a) ->
             Fmt.str "out %d repl follower %s epoch=%d seg=%d idx=%d%s" n fid a.Replica.a_epoch
               a.a_seg a.a_idx
               (if a.a_fence then " fence" else ""))
           s.st_followers
  | None, Some f ->
      let s = Replica.Follower.status f in
      Fmt.str
        "out %d repl role=%s id=%s epoch=%d seg=%d idx=%d applied=%d skipped=%d installs=%d \
         adoptions=%d seals=%d divergences=%d awaiting=%d primary-age=%s"
        n
        (if s.Replica.Follower.st_promoted then "promoted" else "follower")
        f.Replica.Follower.fid s.st_epoch s.st_seg s.st_idx s.st_applied s.st_skipped
        s.st_installs s.st_adoptions s.st_seals s.st_divergences s.st_awaiting
        (match s.st_primary_age with Some a -> Fmt.str "%.1fs" a | None -> "none")
      :: ((match s.st_last_error with
          | None -> []
          | Some e -> [ Fmt.str "out %d repl last-error %s" n e ])
         @ List.map
             (fun (sid, lsn, seg) -> Fmt.str "out %d repl session %s lsn=%d seg=%d" n sid lsn seg)
             s.st_sessions)
  | None, None -> [ Fmt.str "out %d repl role=none" n ]

let stats_lines t n =
  let pc = Session.plan_cache_stats () in
  let wc = Wmc.cache_stats () in
  let c = Durable.session_counts t.dmgr in
  [
    Fmt.str "out %d plan-cache hits=%d misses=%d evictions=%d entries=%d" n pc.Session.hits
      pc.Session.misses pc.Session.evictions pc.Session.entries;
    Fmt.str
      "out %d wmc bdd-hits=%d bdd-misses=%d result-hits=%d result-misses=%d resets=%d nodes=%d"
      n wc.Wmc.bdd_hits wc.Wmc.bdd_misses wc.Wmc.result_hits wc.Wmc.result_misses
      wc.Wmc.resets wc.Wmc.manager_nodes;
    Fmt.str "out %d sessions open=%d" n (c.Durable.live + c.Durable.spilled + c.Durable.failed);
  ]
  @ (match t.dmgr.Durable.cfg.Durable.state_dir with
    | None -> []
    | Some _ ->
        [
          Fmt.str "out %d durability %a live=%d spilled=%d failed=%d" n Durable.pp_stats
            (Durable.stats t.dmgr) c.Durable.live c.Durable.spilled c.Durable.failed;
        ])
  @ (match t.primary with
    | None -> []
    | Some p ->
        let s = Replica.Primary.status p in
        [
          Fmt.str "out %d repl role=primary epoch=%d shipped=%d followers=%d lag-mean-ms=%.3f" n
            s.Replica.Primary.st_epoch s.st_shipped (List.length s.st_followers)
            s.st_mean_barrier_ms;
        ])
  @ (match t.follower with
    | None -> []
    | Some f ->
        let s = Replica.Follower.status f in
        [
          Fmt.str "out %d repl role=%s epoch=%d applied=%d divergences=%d" n
            (if s.Replica.Follower.st_promoted then "promoted" else "follower")
            s.st_epoch s.st_applied s.st_divergences;
        ])
  @ [ Fmt.str "done %d ok stats" n ]

let dispatch t n (req : Protocol.request) =
  match req with
  | Protocol.Open { sid; expect_hash; program } ->
      let hash, ack = Durable.commit_open t.dmgr ~sid ?expect_hash (t.base ^ unquote program) in
      acknowledged t ack (fun () -> [ Fmt.str "done %d ok opened %s hash=%s" n sid hash ])
  | Protocol.Assert { sid; prob; pred; tuple } ->
      lookup t sid;
      acknowledged t
        (Durable.commit_assert t.dmgr ~sid ~pred ?prob tuple)
        (fun () -> [ Fmt.str "done %d ok asserted %s" n sid ])
  | Protocol.Retract { sid; pred; tuple } ->
      lookup t sid;
      acknowledged t
        (Durable.commit_retract t.dmgr ~sid ~pred tuple)
        (fun () -> [ Fmt.str "done %d ok retracted %s" n sid ])
  | Protocol.Query { sid; outputs } ->
      lookup t sid;
      (* the snapshot is taken on the loop, so the query answers exactly
         the writes before it; one that fails fails the query *)
      let snap =
        try Ok (Durable.snapshot t.dmgr ~sid ?outputs ()) with Session.Error _ as e -> Error e
      in
      let run ~rung:_ ~config =
        Incr.run ~budget:config.Interp.budget (Result.fold ~ok:Fun.id ~error:raise snap)
      in
      Later (render_ticket t.svc n (Service.submit_exec t.svc run))
  | Protocol.Close { sid } ->
      lookup t sid;
      acknowledged t (Durable.commit_close t.dmgr ~sid) (fun st ->
          [
            Fmt.str "out %d session %s %a" n sid Incr.pp_session_stats st;
            Fmt.str "done %d ok closed %s" n sid;
          ])
  | Protocol.Stats -> Lines (stats_lines t n)
  | Protocol.Scrub ->
      let reports = Durable.scrub t.dmgr in
      let lines =
        List.concat_map
          (fun r ->
            Fmt.str "out %d scrub %s snapshots=%d segments=%d errors=%d" n r.Durable.sc_sid
              r.Durable.sc_snapshots r.Durable.sc_segments (List.length r.Durable.sc_errors)
            :: List.map (fun e -> Fmt.str "out %d scrub %s ! %s" n r.Durable.sc_sid e)
                 r.Durable.sc_errors)
          reports
      in
      let bad = List.fold_left (fun acc r -> acc + List.length r.Durable.sc_errors) 0 reports in
      Lines
        (lines @ [ Fmt.str "done %d ok scrub sessions=%d errors=%d" n (List.length reports) bad ])
  | Protocol.Repl_status -> Lines (repl_status_lines t n @ [ Fmt.str "done %d ok repl" n ])
  | Protocol.Repl_promote { epoch } -> (
      match t.follower with
      | None -> Session.invalid_input "repl promote: this node is not a follower"
      | Some f ->
          let e = Replica.Follower.promote ?epoch f in
          Lines [ Fmt.str "done %d ok promoted epoch=%d" n e ])
  | Protocol.Run { program } -> (
      match Session.compile (t.base ^ unquote program) with
      | compiled -> Later (render_ticket t.svc n (Service.submit t.svc compiled))
      | exception Session.Error e ->
          Lines [ Fmt.str "done %d error compile %s" n (Session.error_string e) ])

(** Answer one request under the next request id.  Its reply is queued
    behind every earlier one; a write (open, assert, retract or close)
    first waits for room among the writes owed an acknowledgement (at
    most the service's [queue_depth]) and returns once committed, before
    it is acknowledged, without waiting for any query.  A failure is a
    typed error reply, never an exception, except [Stack_overflow] and
    [Out_of_memory], which stay fatal because the process state is
    suspect: raised here, or by the next call (or {!close}) when the
    printer met them.  Call from one thread at a time. *)
let handle t (req : (Protocol.request, Exec_error.t) result) =
  Option.iter raise (Atomic.get t.fatal);
  (match req with
  | Ok (Protocol.Open _ | Protocol.Assert _ | Protocol.Retract _ | Protocol.Close _) ->
      await_room t
  | _ -> ());
  let n = t.next in
  t.next <- n + 1;
  let reply =
    match req with
    | Error e -> Lines (error_lines n e)
    | Ok req -> ( try dispatch t n req with e -> Lines (failure_lines n e))
  in
  push t n reply

(** Stop the replication threads, then return once every owed reply has
    reached the sink, which waits for the queries still running and the
    writes still owed an acknowledgement. *)
let close t =
  Atomic.set t.stop true;
  List.iter Thread.join t.helpers;
  Mutex.lock t.m;
  t.eof <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.m;
  Option.iter Thread.join t.printer;
  Option.iter raise (Atomic.get t.fatal)
