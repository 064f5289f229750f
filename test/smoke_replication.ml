(** Replication failover smoke, run by [dune build @smoke]: kill the
    primary of a quorum-acknowledged primary/follower pair mid-stream,
    promote the follower, and no acknowledged update may be lost.

    The drill: an uninterrupted single-node run of 50 mixed
    assert/retract/query requests records the reference rows.  Then the
    same script runs against a primary shipping its WAL to a live
    follower process under [--repl-ack quorum] — every acknowledged
    update has therefore been applied and locally logged by the follower
    before the client saw its reply.  After that acknowledged prefix, a
    burst of distinct asserts into a second session goes out without
    waiting, and only its first replies are read: the primary is
    SIGKILLed with writes in flight.  The follower (which first proves it
    refuses writes as a standby) is promoted by [repl promote] and takes
    the rest of the script.  Its final rows must be bit-identical to the
    reference; every acknowledged assert of the burst must be there (the
    others may or may not be), with the second session unquarantined,
    which the promoted node then closes.  Finally the promoted follower
    is itself SIGKILLed and restarted single-node on its own state dir:
    it must report the session recovered and serve the same rows again —
    replicated state is durable state.  Last, a fresh primary and
    follower pair must both exit 0 within a deadline once stdin closes:
    the heartbeat and poller loops are threads the serve loop stops and
    joins.

    Exits nonzero on any divergence, missing reply, or unexpected server
    death. *)

let failures = ref 0
let fail fmt = Fmt.kstr (fun m -> incr failures; Fmt.epr "smoke: %s@." m) fmt

let open_line =
  "open s1 type edge(i32, i32);rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), \
   edge(b, c);query path"

(* the smoke_durability update mix: 50 deterministic mixed requests over a
   12-vertex edge set — mostly fresh asserts, retracts of live facts, and
   interleaved queries *)
let updates =
  let seed = ref 41 in
  let next m =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod m
  in
  let live = ref [] in
  List.init 50 (fun i ->
      if i mod 9 = 4 then "query s1"
      else if i mod 5 = 3 && !live <> [] then begin
        let j = next (List.length !live) in
        let a, b = List.nth !live j in
        live := List.filteri (fun k _ -> k <> j) !live;
        Printf.sprintf "retract s1 edge(%d, %d)" a b
      end
      else begin
        let rec fresh tries =
          let a = next 12 and b = next 12 in
          if (a <> b && not (List.mem (a, b) !live)) || tries > 20 then (a, b)
          else fresh (tries + 1)
        in
        let a, b = fresh 0 in
        live := (a, b) :: !live;
        Printf.sprintf "assert s1 edge(%d, %d)" a b
      end)

(* the burst: a session of its own, and distinct asserts into it *)
let burst_open = "open s2 type e(i32, i32);rel r(a, b) = e(a, b);query r"
let burst = List.init 40 (fun k -> Printf.sprintf "assert s2 e(%d, %d)" k (k + 1))
let burst_read = 12 (* replies read before the kill, the open's included *)

(* ---- process plumbing -------------------------------------------------------- *)

type proc = { pid : int; into : out_channel; from : in_channel }

let spawn extra_args =
  let in_read, in_write = Unix.pipe ~cloexec:true () in
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process "../bin/scallop.exe"
      (Array.append [| "scallop"; "serve"; "-p"; "boolean"; "--jobs"; "2" |] extra_args)
      in_read out_write devnull
  in
  Unix.close in_read;
  Unix.close out_write;
  Unix.close devnull;
  { pid; into = Unix.out_channel_of_descr in_write; from = Unix.in_channel_of_descr out_read }

let send p line =
  output_string p.into (line ^ "\n");
  flush p.into

let read_replies p n =
  let lines = ref [] and dones = ref 0 in
  (try
     while !dones < n do
       let line = input_line p.from in
       lines := line :: !lines;
       if String.length line >= 5 && String.sub line 0 5 = "done " then incr dones
     done
   with End_of_file -> fail "server died after %d/%d replies" !dones n);
  List.rev !lines

let finish p =
  close_out_noerr p.into;
  (try
     while true do
       ignore (input_line p.from)
     done
   with End_of_file -> ());
  close_in_noerr p.from;
  match Unix.waitpid [] p.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> fail "scallop serve exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail "scallop serve killed by signal %d" n

(* Close stdin and require a clean exit within [secs]: a helper loop that
   is never joined, or never sees the stop flag, shows up as a hang. *)
let finish_within secs p what =
  close_out_noerr p.into;
  let deadline = Unix.gettimeofday () +. secs in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill p.pid Sys.sigkill;
        ignore (Unix.waitpid [] p.pid);
        fail "%s still running %.0fs after stdin EOF" what secs
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n -> fail "%s exited %d on stdin EOF" what n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail "%s killed by signal %d" what n
  in
  wait ();
  close_in_noerr p.from

(* Kill before closing the pipes: a server still printing replies would
   otherwise die of SIGPIPE first. *)
let sigkill p =
  Unix.kill p.pid Sys.sigkill;
  close_out_noerr p.into;
  close_in_noerr p.from;
  match Unix.waitpid [] p.pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, st ->
      fail "expected SIGKILL death, got %s"
        (match st with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n)

let rows_of lines n =
  let prefix = Printf.sprintf "out %d " n in
  let plen = String.length prefix in
  List.filter_map
    (fun l ->
      if String.length l >= plen && String.equal (String.sub l 0 plen) prefix then
        Some (String.sub l plen (String.length l - plen))
      else None)
    lines

let has l sub =
  let n = String.length l and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub l i m) sub || go (i + 1)) in
  go 0

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let scratch name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scallop-smoke-replication-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf d;
  d

let () =
  (* ---- uninterrupted single-node reference run ------------------------------- *)
  let dir_o = scratch "oracle" in
  let p = spawn [| "--state-dir"; dir_o |] in
  send p open_line;
  List.iter (send p) updates;
  send p "query s1";
  let final_n = 1 + List.length updates in
  let lines = read_replies p (final_n + 1) in
  let reference = rows_of lines final_n in
  finish p;
  if reference = [] then fail "reference run produced no rows";

  (* ---- replicated run: quorum-acked primary + live follower ------------------ *)
  let ship = scratch "ship" in
  let dir_p = scratch "primary" in
  let dir_f = scratch "follower" in
  let prim =
    spawn
      [|
        "--state-dir"; dir_p; "--repl-ship"; ship; "--repl-id"; "alpha"; "--repl-ack";
        "quorum"; "--repl-followers"; "1";
      |]
  in
  let fol =
    spawn [| "--state-dir"; dir_f; "--repl-follow"; ship; "--repl-id"; "beta" |]
  in
  let cut = 23 in
  let prefix = List.filteri (fun i _ -> i < cut) updates in
  let rest = List.filteri (fun i _ -> i >= cut) updates in
  send prim open_line;
  List.iter (send prim) prefix;
  ignore (read_replies prim (1 + cut));
  send prim burst_open;
  List.iter (send prim) burst;
  (* the burst's open is request 1+cut and its asserts follow it *)
  let acked =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "done"; n; "ok"; "asserted"; "s2" ] -> Some (int_of_string n - (2 + cut))
        | _ -> None)
      (read_replies prim burst_read)
  in
  if List.length acked <> burst_read - 1 then
    fail "burst: %d of the first %d asserts acknowledged" (List.length acked) (burst_read - 1);
  (* every reply above was quorum-acked: the follower has applied and
     locally logged each of them.  Kill the primary without mercy, with
     the rest of the burst in flight. *)
  sigkill prim;

  (* a standby must refuse writes with a typed reply, not apply them *)
  send fol "assert s1 edge(0, 11)";
  (match read_replies fol 1 with
  | [ reply ] when has reply "error" && has reply "standby" -> ()
  | replies ->
      fail "standby write should be refused with a typed error, got %s"
        (String.concat " | " replies));

  (* ---- supervised failover ---------------------------------------------------- *)
  send fol "repl promote";
  (match read_replies fol 1 with
  | [ reply ] when has reply "ok promoted epoch=" -> ()
  | replies ->
      fail "promotion should reply 'ok promoted epoch=N', got %s"
        (String.concat " | " replies));
  List.iter (send fol) rest;
  send fol "query s1";
  (* requests number from 0 on each connection: the refused write was 0,
     the promote 1, the rest 2.., so the final query is request 2+|rest| *)
  let final_fn = 2 + List.length rest in
  let lines_f = read_replies fol (List.length rest + 1) in
  let promoted_rows = rows_of lines_f final_fn in
  if List.length promoted_rows <> List.length reference then
    fail "row count diverged after failover: %d vs %d" (List.length promoted_rows)
      (List.length reference)
  else
    List.iter2
      (fun a b -> if not (String.equal a b) then fail "row diverged after failover: %S vs %S" a b)
      promoted_rows reference;

  (* the burst: every acknowledged assert survived the kill *)
  send fol "query s2";
  send fol "repl status";
  send fol "close s2";
  let lines_b = read_replies fol 3 in
  let burst_rows = rows_of lines_b (final_fn + 1) in
  List.iter
    (fun k ->
      if not (List.mem (Printf.sprintf "true::r(%d, %d)" k (k + 1)) burst_rows) then
        fail "acknowledged burst assert %d lost in the failover" k)
    acked;
  if not (List.exists (fun l -> has l (Printf.sprintf "done %d ok" (final_fn + 1))) lines_b)
  then fail "the burst's session does not answer after failover: %s" (String.concat " | " lines_b);
  if not (List.exists (fun l -> has l "role=promoted" && has l " divergences=0 ") lines_b) then
    fail "the promoted follower counted a divergence: %s" (String.concat " | " lines_b);

  (* ---- replicated state is durable state -------------------------------------- *)
  sigkill fol;
  let p2 = spawn [| "--state-dir"; dir_f |] in
  send p2 "stats";
  send p2 "query s1";
  let lines2 = read_replies p2 2 in
  (match List.find_opt (fun l -> has l "durability" && has l " recovered=1") lines2 with
  | Some _ -> ()
  | None -> fail "restarted follower does not report the session as recovered");
  let recovered_rows = rows_of lines2 1 in
  if recovered_rows <> reference then
    fail "restarted follower rows diverged from the reference";
  finish p2;

  (* ---- clean shutdown of both replication roles on stdin EOF ------------------ *)
  let ship2 = scratch "ship-eof" in
  let dir_p2 = scratch "primary-eof" in
  let dir_f2 = scratch "follower-eof" in
  let prim2 = spawn [| "--state-dir"; dir_p2; "--repl-ship"; ship2; "--repl-id"; "gamma" |] in
  let fol2 =
    spawn [| "--state-dir"; dir_f2; "--repl-follow"; ship2; "--repl-id"; "delta" |]
  in
  send prim2 open_line;
  List.iter (send prim2) prefix;
  send prim2 "repl status";
  ignore (read_replies prim2 (2 + cut));
  send fol2 "repl status";
  (match read_replies fol2 1 with
  | first :: _ when has first "role=follower" -> ()
  | replies -> fail "follower status should report role=follower, got %s" (String.concat " | " replies));
  finish_within 10.0 fol2 "follower (--repl-follow)";
  finish_within 10.0 prim2 "primary (--repl-ship)";

  rm_rf dir_o;
  rm_rf ship;
  rm_rf dir_p;
  rm_rf dir_f;
  rm_rf ship2;
  rm_rf dir_p2;
  rm_rf dir_f2;
  if !failures > 0 then exit 1;
  Fmt.pr
    "smoke: follower promoted after SIGKILLing a quorum-acked primary at update %d with \
     writes in flight; %d final rows bit-identical to the uninterrupted run, and identical \
     again after the promoted node itself was killed and recovered; %d acknowledged burst \
     asserts all survived (%d of %d reached the promoted node); a primary and a follower \
     both exited cleanly on stdin EOF@."
    cut (List.length reference) (List.length acked) (List.length burst_rows)
    (List.length burst)
