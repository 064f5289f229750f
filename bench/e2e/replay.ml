(** In-process replay of the serve workloads for the traced run.

    [dispatch] mirrors [dispatch] in [bin/scallop.ml] call for call:
    [Protocol.parse] first; one-shot lines are [Session.compile]d and
    submitted to the service ([Service.submit_exec] around [Session.run],
    the same work as the service's [Run] payload); session queries are
    [Service.submit_exec] around [Durable.query]; writes drain the
    session's in-flight queries and then call [Durable.assert_fact] /
    [Durable.retract_fact] inline.  Requests complete in order, with the
    same window as the subprocess pass, so a request's latency includes
    waiting for the replies ahead of it exactly as a [serve] client sees.

    Spans (children of one [request] root):
    - [protocol.parse], [session.compile], [serve.drain], [durable.write]:
      the calls themselves, on the dispatching thread;
    - [service.queue]: submission until the worker starts the closure;
    - [interp.run] / [durable.query]: the closure on the worker domain;
    - [serve.reply_order]: finished, waiting for older replies;
    - [service.complete]: finished and oldest, until [Service.await]
      returns. *)

open Scallop_core
module Service = Scallop_serve.Service
module Protocol = Scallop_serve.Protocol
module Durable = Scallop_incr.Durable
module Replica = Scallop_incr.Replica

let now = Client.now

type env = {
  svc : Service.t;
  dmgr : Durable.t;
  tickets : (string, Service.ticket list ref) Hashtbl.t;
  tr : Trace.t;
}

let create_env ?state_dir ?primary ~tr spec : env =
  let interp = Interp.default_config () in
  let svc =
    Service.create ~config:{ (Service.default_config ()) with Service.jobs = 1; interp } spec
  in
  let dmgr =
    Durable.create
      (Durable.config ?state_dir ~wal_sync:true ~group_commit:true
         ?repl:(Option.map Replica.Primary.sink primary) ~interp spec)
  in
  if primary <> None then Durable.ship_barrier dmgr;
  { svc; dmgr; tickets = Hashtbl.create 8; tr }

(* Worker-side timestamps of one submitted closure.  Written on the worker
   domain, read after [Service.await], which orders the two. *)
type stamps = { mutable qs : float; mutable qe : float; mutable words : float }

type work =
  | Inline of { t_end : float; ok : bool }  (** a verb run on the dispatching thread *)
  | Submitted of { tk : Service.ticket; st : stamps; t_submit : float; name : string }
      (** [name]: the span of the closure body *)

type pending = {
  rid : int;  (** root span id *)
  op : Gen.op;
  t0 : float;
  work : work;
  mutable words : float;
}

let render (r : Session.result) =
  List.concat_map
    (fun (pred, rows) ->
      List.map (fun (t, tag) -> Fmt.str "%a::%s%a" Provenance.Output.pp tag pred Tuple.pp t) rows)
    r.Session.outputs

let unquote line = String.map (fun c -> if c = ';' then '\n' else c) line

let pending_of env sid =
  match Hashtbl.find_opt env.tickets sid with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add env.tickets sid r;
      r

let drain env sid =
  let r = pending_of env sid in
  List.iter (fun tk -> ignore (Service.await env.svc tk)) (List.rev !r);
  r := []

let lookup env sid =
  if not (Durable.exists env.dmgr ~sid) then Session.invalid_input "unknown session %s" sid

let dispatch env (op : Gen.op) : pending =
  let traced = env.tr.Trace.enabled in
  let stamp () = if traced then now () else Float.nan in
  let rid = Trace.fresh_id env.tr in
  let t0 = now () in
  let w0 = if traced then Gc.minor_words () else 0.0 in
  let parsed = Protocol.parse op.Gen.line in
  let span name f =
    let a = stamp () in
    let v = f () in
    Trace.child env.tr ~req:rid name a (stamp ());
    v
  in
  Trace.child env.tr ~req:rid "protocol.parse" t0 (stamp ());
  let submit name f =
    let st = { qs = Float.nan; qe = Float.nan; words = 0.0 } in
    let t_submit = stamp () in
    let tk =
      Service.submit_exec env.svc (fun ~rung ~config ->
          st.qs <- stamp ();
          let w = if traced then Gc.minor_words () else 0.0 in
          let r = f ~rung ~config in
          if traced then st.words <- Gc.minor_words () -. w;
          st.qe <- stamp ();
          r)
    in
    (tk, Submitted { tk; st; t_submit; name })
  in
  let failed () = Inline { t_end = stamp (); ok = false } in
  let inline f =
    match f () with
    | () -> Inline { t_end = stamp (); ok = true }
    | exception Session.Error _ -> failed ()
  in
  let work =
    match parsed with
    | Error _ -> failed ()
    | Ok (Protocol.Open { sid; expect_hash; program }) ->
        inline (fun () ->
            ignore (Durable.open_session env.dmgr ~sid ?expect_hash (unquote program)))
    | Ok (Protocol.Assert { sid; prob; pred; tuple }) ->
        inline (fun () ->
            lookup env sid;
            span "serve.drain" (fun () -> drain env sid);
            span "durable.write" (fun () -> Durable.assert_fact env.dmgr ~sid ~pred ?prob tuple))
    | Ok (Protocol.Retract { sid; pred; tuple }) ->
        inline (fun () ->
            lookup env sid;
            span "serve.drain" (fun () -> drain env sid);
            span "durable.write" (fun () -> Durable.retract_fact env.dmgr ~sid ~pred tuple))
    | Ok (Protocol.Query { sid; outputs }) -> (
        match lookup env sid with
        | exception Session.Error _ -> failed ()
        | () ->
            let tk, w =
              submit "durable.query" (fun ~rung:_ ~config ->
                  Durable.query ?outputs ~budget:config.Interp.budget env.dmgr ~sid ())
            in
            let r = pending_of env sid in
            r := tk :: List.filter (fun t -> Service.poll env.svc t = None) !r;
            w)
    | Ok (Protocol.Run { program }) -> (
        match span "session.compile" (fun () -> Session.compile (unquote program)) with
        | exception Session.Error _ -> failed ()
        | compiled ->
            snd
              (submit "interp.run" (fun ~rung ~config ->
                   Session.run ~config ~provenance:(Registry.create rung) compiled ())))
    | Ok _ -> failed ()
  in
  { rid; op; t0; work; words = (if traced then Gc.minor_words () -. w0 else 0.0) }

(** Finish the oldest outstanding request: returns (ok, rows, end time). *)
let complete env (p : pending) : bool * string list * float =
  let t_oldest = now () in
  let child = Trace.child env.tr ~req:p.rid in
  match p.work with
  | Inline { t_end; ok } ->
      child "serve.reply_order" t_end t_oldest;
      (ok, [], t_oldest)
  | Submitted { tk; st; t_submit; name } ->
      let o = Service.await env.svc tk in
      let t_ret = now () in
      p.words <- p.words +. st.words;
      if not (Float.is_nan st.qe) then begin
        child "service.queue" t_submit st.qs;
        child name st.qs st.qe;
        child "serve.reply_order" st.qe t_oldest;
        child "service.complete" (Float.max st.qe t_oldest) t_ret
      end;
      (match o.Service.response with
      | Ok r -> (true, render r, t_ret)
      | Error _ -> (false, [], t_ret))

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat : float list;
  mutable words : float;
}

(** Run [ops] with at most [window] outstanding, checking every answer. *)
let run env ~window (ops : Gen.op list) : result =
  let r = { attempted = 0; failed = 0; lat = []; words = 0.0 } in
  let q = Queue.create () and rest = ref ops in
  let rec fill () =
    match !rest with
    | op :: tl when Queue.length q < window ->
        rest := tl;
        Queue.push (dispatch env op) q;
        fill ()
    | _ -> ()
  in
  fill ();
  while not (Queue.is_empty q) do
    let p = Queue.pop q in
    let ok, rows, t_end = complete env p in
    Trace.add env.tr ~id:p.rid ~name:"request" ~parent:(-1) ~req:p.rid p.t0 t_end;
    r.attempted <- r.attempted + 1;
    r.lat <- (t_end -. p.t0) :: r.lat;
    r.words <- r.words +. p.words;
    if not (Gen.check p.op ~ok ~rows) then r.failed <- r.failed + 1;
    fill ()
  done;
  r

let shutdown env =
  Service.shutdown env.svc;
  Durable.shutdown env.dmgr
