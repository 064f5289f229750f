(* Self-test of the benchmark's oracles, reply parser, statistics, spans and
   generators on hand-written cases.  Exits nonzero on the first mismatch. *)

open E2e_core

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "test_e2e: FAIL %s\n%!" name
  end

(* 0 -> 1 (0.5), 1 -> 2 (0.9), 0 -> 2 (0.6), 2 -> 0 (0.4), 2 -> 3 (0.8) *)
let edges = [ (0, 1, 500); (1, 2, 900); (0, 2, 600); (2, 0, 400); (2, 3, 800) ]
let acyclic = List.filter (fun (a, b, _) -> not (a = 2 && b = 0)) edges

let () =
  (* widest path: the direct 0.6 edge beats the 0.5-bottleneck detour; the
     source is reached only around the cycle *)
  check "widest" (Oracle.widest ~nodes:4 ~src:0 edges = [ (0, 400); (1, 500); (2, 600); (3, 600) ]);
  check "widest acyclic" (Oracle.widest ~nodes:4 ~src:0 acyclic = [ (1, 500); (2, 600); (3, 600) ]);
  check "widest isolated" (Oracle.widest ~nodes:4 ~src:3 edges = []);
  check "reach count" (Oracle.reach_count ~nodes:4 ~src:0 edges = 4);
  check "reach count acyclic" (Oracle.reach_count ~nodes:4 ~src:0 acyclic = 3);
  check "unreach count" (Oracle.unreach_count ~nodes:4 ~src:0 acyclic = 1);
  check "unreach count sink" (Oracle.unreach_count ~nodes:4 ~src:3 edges = 4);
  check "group sum/count"
    (Oracle.group_sum_count [ (1, 2); (0, 1); (0, 5); (0, 5); (3, 0) ]
    = [ (0, 6, 2); (1, 2, 1); (3, 0, 1) ]);

  (* reply lines *)
  check "classify out"
    (Reply.classify "out 3 0.523000::reach(17)" = Reply.Out (3, "0.523000::reach(17)"));
  check "classify done ok"
    (Reply.classify "done 3 ok rung=minmaxprob attempts=1 ms=0.1"
    = Reply.Done (3, true, "rung=minmaxprob attempts=1 ms=0.1"));
  check "classify done error"
    (Reply.classify "done 4 error compile parse error"
    = Reply.Done (4, false, "compile parse error"));
  check "classify other"
    (Reply.classify "service: submitted=3" = Reply.Other "service: submitted=3");
  check "row prob"
    (Reply.parse_row "0.400000::reach(0)"
    = Some { Reply.pred = "reach"; args = [ 0 ]; tag = 400_000 });
  check "row bool pair"
    (Reply.parse_row "true::total(0, 6)"
    = Some { Reply.pred = "total"; args = [ 0; 6 ]; tag = 1_000_000 });
  check "row untagged" (Reply.parse_row "reach(0)" = None);
  check "row non-int" (Reply.parse_row "true::name(\"bob\")" = None);
  check "rows sorted"
    (Reply.rows [ "0.600000::reach(3)"; "0.400000::reach(0)" ]
    = Some
        [
          { Reply.pred = "reach"; args = [ 0 ]; tag = 400_000 };
          { Reply.pred = "reach"; args = [ 3 ]; tag = 600_000 };
        ]);

  (* an oracle answer against a reply, through the generator's check *)
  let want =
    List.map
      (fun (b, w) -> { Reply.pred = "reach"; args = [ b ]; tag = w * 1000 })
      (Oracle.widest ~nodes:4 ~src:0 edges)
  in
  let op = { Gen.line = "query t0 reach"; kind = Gen.Read; expect = Some want } in
  let reply =
    [ "0.500000::reach(1)"; "0.400000::reach(0)"; "0.600000::reach(2)"; "0.600000::reach(3)" ]
  in
  check "check match" (Gen.check op ~ok:true ~rows:reply);
  check "check wrong tag"
    (not (Gen.check op ~ok:true ~rows:("0.700000::reach(3)" :: List.tl reply)));
  check "check missing row" (not (Gen.check op ~ok:true ~rows:(List.tl reply)));
  check "check error reply" (not (Gen.check op ~ok:false ~rows:reply));

  (* statistics: quartiles as Python's statistics.quantiles(range(1, 11), n=4) *)
  let q1, q3 = Summary.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles" (q1 = 2.75 && q3 = 8.25);
  check "median" (Summary.median [ 3.0; 1.0; 2.0; 10.0 ] = 2.5);
  check "p90" (Summary.quantile (List.init 11 float_of_int) 0.9 = 9.0);

  (* spans: children inside their root account for it; one outside does not *)
  let tr = Trace.create ~enabled:true in
  Trace.add tr ~id:0 ~name:"request" ~parent:(-1) ~req:0 0.0 1.0;
  Trace.child tr ~req:0 "protocol.parse" 0.0 0.25;
  Trace.child tr ~req:0 "interp.run" 0.25 0.75;
  let r = Trace.analyse ~root:"request" (Trace.spans tr) in
  check "trace nested" (r.Trace.violations = 0 && r.Trace.roots = 1);
  check "trace unaccounted" (Float.abs (r.Trace.unaccounted -. 0.25) < 1e-12);
  check "trace by name" (List.assoc "interp.run" r.Trace.by_name = 0.5);
  Trace.child tr ~req:0 "service.complete" 0.9 1.5;
  check "trace escape" ((Trace.analyse ~root:"request" (Trace.spans tr)).Trace.violations > 0);
  let off = Trace.create ~enabled:false in
  Trace.child off ~req:0 "protocol.parse" 0.0 1.0;
  check "trace disabled" (Trace.spans off = []);

  (* generators are pure functions of the seed *)
  let cfg = { Gen.tenants = 2; nodes = 6; edges = 5; assert_pct = 30; retract_pct = 30 } in
  let lines seed =
    let g = Gen.session_gen cfg ~seed in
    List.map (fun (o : Gen.op) -> o.Gen.line) (Gen.session_setup g)
    @ List.init 50 (fun _ -> (Gen.session_next g).Gen.line)
  in
  check "sessions deterministic" (lines 7 = lines 7);
  check "sessions seeded" (lines 7 <> lines 8);
  check "sessions setup size"
    (List.length (Gen.session_setup (Gen.session_gen cfg ~seed:1)) = 2 + 10 + 2);
  let g = Gen.session_gen cfg ~seed:3 in
  for _ = 1 to 200 do
    ignore (Gen.session_next g)
  done;
  check "sessions model consistent"
    (Array.for_all
       (fun (t : Gen.tenant) ->
         t.Gen.n = Hashtbl.length t.Gen.index
         && List.for_all
              (fun (a, b, _) -> Hashtbl.mem t.Gen.index (a, b) && a <> b)
              (Gen.edge_list t))
       g.Gen.ts);
  let oc =
    { Gen.o_nodes = 4; o_edges = 3; groups = 2; per_group = 3; reach_pct = 40; unreach_pct = 30 }
  in
  let one seed =
    let rng = Prng.create ~seed ~stream:2 in
    List.init 20 (fun _ -> (Gen.oneshot_next rng oc).Gen.line)
  in
  check "oneshot deterministic" (one 5 = one 5);
  if !failures > 0 then exit 1;
  print_endline "test_e2e: oracles, reply parser, statistics, spans and generators ok"
