(** Batch-at-a-time relational operators over columnar storage ({!Column}),
    parameterized by a provenance — the vectorized execution engine every
    run uses by default (see DESIGN.md, "Columnar executor").

    A {!batch} is a struct-of-arrays relation fragment: one encoded column
    per attribute plus a parallel provenance-tag array, rows in {e emission
    order} — the exact order in which the tree-walking interpreter would
    have produced the same tuples.  Operators preserve that order (joins
    even reproduce the tree-walker's reversed per-key match order), so
    normalization folds ⊕ over duplicates in the identical sequence and the
    result is bit-identical to {!Interp}'s list pipeline.

    A {!crel} is a materialized relation: a stack of strictly-sorted runs
    merged with an amortized size-doubling policy (total merge cost
    O(N log N) across a fixpoint instead of O(N) per iteration), plus a
    tuple-hash membership table so the dominant "is this tuple new?" probe
    of semi-naive deltas is O(1) for genuinely new tuples.  A tuple's tag is
    the one in the newest run holding it, already ⊕-merged as the
    tree-walker's [merge_newly] stores it, so merging runs never
    re-associates ⊕.

    Aggregations decode group bodies back to tuples and reuse
    {!Aggregate.Make} verbatim, so the per-aggregator DP schemes — and their
    provenance semantics — are shared with the oracle rather than cloned. *)

let runtime_error msg = Exec_error.raise_error (Exec_error.Runtime_error { msg })

(** Stable sort of [a.(0 .. n-1)] by [cmp], with [tmp] (length >= [n]) as
    the merge buffer: insertion-sorted blocks, then bottom-up merges.  A
    stable sort needs no index tie-break to reproduce emission order, and
    sorting a prefix lets [a] and [tmp] be reused scratch buffers. *)
let sort_prefix (cmp : int -> int -> int) (a : int array) (tmp : int array) (n : int) : unit =
  let block = 16 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block) in
    for i = !lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && cmp a.(!j) v > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done;
    lo := hi
  done;
  let src = ref a and dst = ref tmp and width = ref block in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid and k = ref !lo in
      while !i < mid && !j < hi do
        if cmp s.(!j) s.(!i) < 0 then begin
          d.(!k) <- s.(!j);
          incr j
        end
        else begin
          d.(!k) <- s.(!i);
          incr i
        end;
        incr k
      done;
      Array.blit s !i d !k (mid - !i);
      Array.blit s !j d (!k + mid - !i) (hi - !j);
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  if !src != a then Array.blit !src 0 a 0 n

(** First position [p] in [[from], n) with [cmp (at p) i >= 0] ([> 0] when
    [upper]), for positions sorted under [cmp]: one binary search of a
    sorted run (or a sorted permutation [at]) for row [i] of a probe. *)
let bound ~upper (cmp : int -> int -> int) (at : int array option) (from : int) (n : int)
    (i : int) : int =
  let lo = ref from and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cmp (match at with None -> mid | Some perm -> perm.(mid)) i in
    if c < 0 || (upper && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---- pooled scratch ---------------------------------------------------------- *)

(** Index and value buffers that operators stage intermediate results in,
    grown by doubling. *)
type scratch = { ints : int array array; mutable values : Value.t array array }

(* One idle scratch per domain, handed from run to run so a run does not
   regrow its buffers from nothing.  [Atomic.exchange] gives it to at most
   one run at a time, even when several threads share the domain; a run
   that finds the pool empty starts a fresh scratch. *)
let pool : scratch option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

(* A buffer longer than this is dropped rather than pooled, so one huge run
   does not pin its high-water mark on the domain. *)
let max_pooled = 1 lsl 18

let acquire_scratch () : scratch =
  match Atomic.exchange (Domain.DLS.get pool) None with
  | Some sc -> sc
  | None -> { ints = Array.make 4 [||]; values = [||] }

let release_scratch (sc : scratch) =
  Array.iteri (fun i a -> if Array.length a > max_pooled then sc.ints.(i) <- [||]) sc.ints;
  sc.values <- Array.map (fun a -> if Array.length a > max_pooled then [||] else a) sc.values;
  Atomic.set (Domain.DLS.get pool) (Some sc)

module Make (P : Provenance.S) = struct
  module Agg = Aggregate.Make (P)

  type batch = { n : int; cols : Column.t array; tags : P.t array }

  (* The canonical empty batch: [n = 0] always comes with [cols = [||]]
     (arity is unknowable without rows).  Nonempty arity-0 batches exist —
     the unit relation — so [cols = [||]] alone does not mean empty. *)
  let empty : batch = { n = 0; cols = [||]; tags = [||] }
  let singleton : batch Lazy.t = lazy { n = 1; cols = [||]; tags = [| P.one |] }

  let tuple_at (b : batch) (i : int) : Tuple.t =
    match b.cols with
    | [| c0 |] -> [| Column.get c0 i |]
    | [| c0; c1 |] -> [| Column.get c0 i; Column.get c1 i |]
    | [| c0; c1; c2 |] -> [| Column.get c0 i; Column.get c1 i; Column.get c2 i |]
    | cols -> Array.init (Array.length cols) (fun c -> Column.get cols.(c) i)

  let of_list (items : (Tuple.t * P.t) list) : batch =
    match items with
    | [] -> empty
    | (u0, t0) :: _ ->
        let n = List.length items in
        let arity = Array.length u0 in
        let tags = Array.make n t0 in
        let colv = Array.init arity (fun _ -> Array.make n (Value.B false)) in
        List.iteri
          (fun i (u, t) ->
            tags.(i) <- t;
            for c = 0 to arity - 1 do
              colv.(c).(i) <- u.(c)
            done)
          items;
        { n; cols = Array.map Column.pack colv; tags }

  let to_list (b : batch) : (Tuple.t * P.t) list =
    List.init b.n (fun i -> (tuple_at b i, b.tags.(i)))

  (** Final query outputs, decoded and tag-recovered in one pass (building
      [to_list] and mapping it again would traverse and allocate twice). *)
  let to_outputs (b : batch) : (Tuple.t * Provenance.Output.t) list =
    let acc = ref [] in
    for i = b.n - 1 downto 0 do
      acc := (tuple_at b i, P.recover b.tags.(i)) :: !acc
    done;
    !acc

  (* Lexicographic row comparison across two column sets, with
     [Tuple.compare]'s shorter-is-smaller rule for differing arities. *)
  let cmp_cols_across (ca : Column.t array) (cb : Column.t array) i j =
    let la = Array.length ca and lb = Array.length cb in
    let w = min la lb in
    let c = ref 0 and k = ref 0 in
    while !c = 0 && !k < w do
      c := Column.cmp_across ca.(!k) cb.(!k) i j;
      incr k
    done;
    if !c <> 0 then !c else Int.compare la lb

  let cmp_rows (cols : Column.t array) i j = cmp_cols_across cols cols i j

  (** Build a row comparator specialized to the column encodings: when every
      column pair is a same-type unboxed int column (the common case for
      Datalog-style integer relations) the closure compares raw [int array]
      entries with no dispatch — the difference between ~100ns and ~15ns per
      comparison in sorts and sorted merges.  Falls back to
      {!cmp_cols_across} otherwise (identical ordering by construction). *)
  let cross_cmp (ac : Column.t array) (bc : Column.t array) : int -> int -> int =
    let width = Array.length ac in
    let int_pairs =
      if width = 0 || width <> Array.length bc then None
      else begin
        let rec go k acc =
          if k = width then Some (Array.of_list (List.rev acc))
          else
            match (ac.(k), bc.(k)) with
            | Column.I (ta, xa), Column.I (tb, xb) when Value.equal_ty ta tb ->
                go (k + 1) ((xa, xb) :: acc)
            | _ -> None
        in
        go 0 []
      end
    in
    match int_pairs with
    | Some [| (xa, xb) |] -> fun i j -> Stdlib.compare (xa.(i) : int) xb.(j)
    | Some [| (xa1, xb1); (xa2, xb2) |] ->
        fun i j ->
          let c = Stdlib.compare (xa1.(i) : int) xb1.(j) in
          if c <> 0 then c else Stdlib.compare (xa2.(i) : int) xb2.(j)
    | Some pairs ->
        fun i j ->
          let rec go k =
            if k = Array.length pairs then 0
            else
              let xa, xb = pairs.(k) in
              let c = Stdlib.compare (xa.(i) : int) xb.(j) in
              if c <> 0 then c else go (k + 1)
          in
          go 0
    | None -> fun i j -> cmp_cols_across ac bc i j

  let self_cmp (cols : Column.t array) : int -> int -> int = cross_cmp cols cols

  (* Per-cell hash specialized to the encoding.  Only internal consistency
     matters (the membership set is a collision-tolerant pre-filter, verified
     by binary search on hit), so int cells use a cheap multiplicative mix
     instead of the polymorphic hash; the dictionary arm mirrors it per
     encoding-independence (an [I] run and a [D] run of the same relation
     must agree on equal logical rows). *)
  (* splitmix-style finalizer: the xor-shifts between the multiplies break
     linearity, so the linear h*31+cell row combine cannot re-align cell
     hashes into collisions (a plain multiplicative mix is linear for small
     ints and made ~90% of all-new delta probes collide). *)
  let int_mix (n : int) : int =
    let h = n * 0x2545F4914F6CDD1D in
    let h = h lxor (h lsr 30) in
    let h = h * 0x27D4EB2F165667C5 in
    h lxor (h lsr 27)

  let cell_hasher (c : Column.t) : int -> int =
    match c with
    | Column.I (_, a) -> fun i -> int_mix a.(i)
    | Column.F (_, a) -> fun i -> Hashtbl.hash (1, a.(i))
    | Column.D (dict, codes) ->
        let dh =
          Array.map
            (function Value.Int (_, n) -> int_mix n | v -> Value.hash_value v)
            dict
        in
        fun i -> dh.(codes.(i))

  let row_hasher (cols : Column.t array) : int -> int =
    match cols with
    (* all-int arms skip the per-cell closure chain entirely *)
    | [| Column.I (_, a) |] -> fun i -> (17 * 31) + int_mix a.(i)
    | [| Column.I (_, a0); Column.I (_, a1) |] ->
        fun i -> ((((17 * 31) + int_mix a0.(i)) * 31) + int_mix a1.(i))
    | _ -> (
        let fs = Array.map cell_hasher cols in
        match fs with
        | [| f |] -> fun i -> (17 * 31) + f i
        | [| f0; f1 |] -> fun i -> ((((17 * 31) + f0 i) * 31) + f1 i)
        | fs -> fun i -> Array.fold_left (fun h f -> (h * 31) + f i) 17 fs)

  (* Open-addressing int hash set (linear probing, power-of-two capacity).
     Generic [Hashtbl] costs ~4x more per membership test — this sits on the
     per-derived-tuple fixpoint path. *)
  module Ihs = struct
    type t = {
      mutable keys : int array;  (** 0 = empty slot *)
      mutable mask : int;
      mutable count : int;
      mutable has_zero : bool;
    }

    let create (expect : int) : t =
      let cap = ref 16 in
      while !cap < expect * 2 do
        cap := !cap * 2
      done;
      { keys = Array.make !cap 0; mask = !cap - 1; count = 0; has_zero = false }

    let slot (t : t) (k : int) : int =
      let i = ref (int_mix k land t.mask) in
      while t.keys.(!i) <> 0 && t.keys.(!i) <> k do
        i := (!i + 1) land t.mask
      done;
      !i

    let grow (t : t) =
      let old = t.keys in
      t.keys <- Array.make (2 * Array.length old) 0;
      t.mask <- Array.length t.keys - 1;
      Array.iter (fun k -> if k <> 0 then t.keys.(slot t k) <- k) old

    let add (t : t) (k : int) =
      if k = 0 then t.has_zero <- true
      else begin
        let i = slot t k in
        if t.keys.(i) = 0 then begin
          t.keys.(i) <- k;
          t.count <- t.count + 1;
          if 2 * t.count > t.mask then grow t
        end
      end

    let mem (t : t) (k : int) : bool = if k = 0 then t.has_zero else t.keys.(slot t k) = k

    (** Membership test that inserts on miss, sharing one probe for both:
        returns whether [k] was already present. *)
    let probe_add (t : t) (k : int) : bool =
      if k = 0 then
        if t.has_zero then true
        else begin
          t.has_zero <- true;
          false
        end
      else begin
        let i = slot t k in
        if t.keys.(i) = k then true
        else begin
          t.keys.(i) <- k;
          t.count <- t.count + 1;
          if 2 * t.count > t.mask then grow t;
          false
        end
      end
  end

  (* ---- scratch buffers ------------------------------------------------------ *)

  (* Operators stage intermediate indices, tags and values in scratch
     buffers and allocate only the exactly-sized arrays they return, so a
     fixpoint round does not put a fresh index or tag array per operator
     into the major heap.  The index and value buffers come from the
     domain's {!pool} on first use and go back at {!release} (the
     interpreter calls it when a run ends); the tag buffer is typed by [P]
     and lives with this instance.  {!Interp.Make}, and with it this
     functor, is applied once per [Session.run], so an instance serves one
     run on one thread.  An operator owns the buffers only until it
     returns, and never calls another buffer-using operator while it holds
     them. *)
  let held : scratch option ref = ref None

  let scratch () =
    match !held with
    | Some sc -> sc
    | None ->
        let sc = acquire_scratch () in
        held := Some sc;
        sc

  (** Return the pooled buffers to the domain (a later operator call takes
      them again). *)
  let release () =
    match !held with
    | Some sc ->
        held := None;
        release_scratch sc
    | None -> ()

  let ints slot n =
    let sc = scratch () in
    let a = sc.ints.(slot) in
    if Array.length a >= n then a
    else begin
      let a = Array.make (max n (2 * Array.length a)) 0 in
      sc.ints.(slot) <- a;
      a
    end

  let tslot : P.t array ref = ref [||]

  (* [filler] only initializes a grown buffer; every read slot is written
     first. *)
  let tag_buf n (filler : P.t) : P.t array =
    if Array.length !tslot < n then tslot := Array.make (max n (2 * Array.length !tslot)) filler;
    !tslot

  let value_bufs w n : Value.t array array =
    let sc = scratch () in
    if Array.length sc.values < w then
      sc.values <- Array.append sc.values (Array.make (w - Array.length sc.values) [||]);
    let vs = sc.values in
    for c = 0 to w - 1 do
      if Array.length vs.(c) < n then
        vs.(c) <- Array.make (max n (2 * Array.length vs.(c))) (Value.B false)
    done;
    vs

  (* Rows [idx.(0 .. m-1)] of [b] with tags [tags.(0 .. m-1)], both staged
     in scratch; canonicalizes emptiness. *)
  let take (b : batch) (idx : int array) (tags : P.t array) (m : int) : batch =
    if m = 0 then empty
    else { n = m; cols = Array.map (fun c -> Column.gather c idx m) b.cols; tags = Array.sub tags 0 m }

  (* Every row of [b], in place, with tags [tags.(0 .. b.n-1)]: the columns
     are shared, and [b] itself is returned when no tag changed. *)
  let with_tags (b : batch) (tags : P.t array) : batch =
    let same = ref true in
    for i = 0 to b.n - 1 do
      if tags.(i) != b.tags.(i) then same := false
    done;
    if !same then b else { b with tags = Array.sub tags 0 b.n }

  (* [take] for a filter ([idx] strictly increasing). *)
  let keep_rows (b : batch) (idx : int array) (tags : P.t array) (m : int) : batch =
    if m < b.n then take b idx tags m else with_tags b tags

  (* ---- normalization and sorted-run algebra ------------------------------- *)

  (** Stable-sort rows, ⊕-merge duplicates in emission order, drop discarded
      tags: exactly [Interp.normalize] followed by [Tuple.Map.bindings]. *)
  let rec sort_normalize (b : batch) : batch =
    if b.n = 0 then empty
    else begin
      (* Strictly-sorted inputs (frequent: joins over sorted deltas emit in
         near-sorted order) skip the permutation sort and duplicate fold
         entirely — only the discard filter applies, and when nothing is
         discarded the batch is returned as-is, arrays shared. *)
      let rcmp = self_cmp b.cols in
      let sorted = ref true in
      (try
         for i = 1 to b.n - 1 do
           if rcmp (i - 1) i >= 0 then begin
             sorted := false;
             raise Exit
           end
         done
       with Exit -> ());
      if !sorted then begin
        if Array.exists P.discard b.tags then begin
          let idx = ints 0 b.n and tags = tag_buf b.n b.tags.(0) in
          let m = ref 0 in
          for i = 0 to b.n - 1 do
            if not (P.discard b.tags.(i)) then begin
              idx.(!m) <- i;
              tags.(!m) <- b.tags.(i);
              incr m
            end
          done;
          keep_rows b idx tags !m
        end
        else b
      end
      else sort_normalize_slow rcmp b
    end

  and sort_normalize_slow rcmp (b : batch) : batch =
    let n = b.n in
    let idx = ints 0 n in
    for i = 0 to n - 1 do
      idx.(i) <- i
    done;
    sort_prefix rcmp idx (ints 1 n) n;
    (* fold each run of equal rows into its first (leader) row, compacting
       leaders and their ⊕-folded tags to the front of the buffers *)
    let tags = tag_buf n b.tags.(0) in
    let m = ref 0 in
    for p = 0 to n - 1 do
      let r = idx.(p) in
      if !m > 0 && rcmp idx.(!m - 1) r = 0 then tags.(!m - 1) <- P.add tags.(!m - 1) b.tags.(r)
      else begin
        idx.(!m) <- r;
        tags.(!m) <- b.tags.(r);
        incr m
      end
    done;
    let k = ref 0 in
    for x = 0 to !m - 1 do
      if not (P.discard tags.(x)) then begin
        idx.(!k) <- idx.(x);
        tags.(!k) <- tags.(x);
        incr k
      end
    done;
    take b idx tags !k

  (** Sorted merge of an older strictly-sorted run [a] and a newer one [b]
      of the same relation; a tuple in both keeps [b]'s tag, which already
      accumulates [a]'s (see {!crel}) —
      [Tuple.Map.union (fun _ _older newer -> Some newer)]. *)
  let union_runs (a : batch) (b : batch) : batch =
    if a.n = 0 then b
    else if b.n = 0 then a
    else begin
      let total = a.n + b.n in
      let cmp = cross_cmp a.cols b.cols in
      let plan = ints 0 total in
      let tags = Array.make total a.tags.(0) in
      let k = ref 0 and i = ref 0 and j = ref 0 in
      while !i < a.n && !j < b.n do
        let c = cmp !i !j in
        if c < 0 then begin
          plan.(!k) <- !i lsl 1;
          tags.(!k) <- a.tags.(!i);
          incr k;
          incr i
        end
        else if c > 0 then begin
          plan.(!k) <- (!j lsl 1) lor 1;
          tags.(!k) <- b.tags.(!j);
          incr k;
          incr j
        end
        else begin
          plan.(!k) <- !i lsl 1;
          tags.(!k) <- b.tags.(!j);
          incr k;
          incr i;
          incr j
        end
      done;
      while !i < a.n do
        plan.(!k) <- !i lsl 1;
        tags.(!k) <- a.tags.(!i);
        incr k;
        incr i
      done;
      while !j < b.n do
        plan.(!k) <- (!j lsl 1) lor 1;
        tags.(!k) <- b.tags.(!j);
        incr k;
        incr j
      done;
      let k = !k in
      {
        n = k;
        cols = Array.map2 (fun ca cb -> Column.merge ca cb plan k) a.cols b.cols;
        tags = (if k = total then tags else Array.sub tags 0 k);
      }
    end

  (* When every column of every run is a same-type unboxed int column and the
     per-column value spans pack into a small composite key, the whole run
     stack merges with one counting pass instead of O(log k) pairwise
     comparison merges; the newest run holding a tuple supplies its tag.
     Key-width and range guards keep the count array proportional to the
     data; anything else falls back to the comparison merge. *)
  let radix_bits = 20

  let force_radix (oldest_first : batch list) : batch option =
    match oldest_first with
    | [] -> Some empty
    | first :: _ -> (
        let width = Array.length first.cols in
        let total = List.fold_left (fun acc r -> acc + r.n) 0 oldest_first in
        if width = 0 || total = 0 then None
        else
          try
            let col_ty = function Column.I (ty, _) -> ty | _ -> raise Exit in
            let tys = Array.map col_ty first.cols in
            let runs = Array.of_list oldest_first in
            let nruns = Array.length runs in
            (* per-run raw int arrays, encoding-checked up front *)
            let raw =
              Array.map
                (fun (r : batch) ->
                  Array.mapi
                    (fun c col ->
                      match col with
                      | Column.I (ty, a) when Value.equal_ty ty tys.(c) -> a
                      | _ -> raise Exit)
                    r.cols)
                runs
            in
            (* Per-column spans; higher columns occupy higher key bits, so
               composite-key order is exactly lexicographic row order. *)
            let shift_bits = Array.make width 0 and mins = Array.make width 0 in
            let bits_total = ref 0 in
            for c = 0 to width - 1 do
              let mn = ref max_int and mx = ref min_int in
              for r = 0 to nruns - 1 do
                let a = raw.(r).(c) in
                for i = 0 to Array.length a - 1 do
                  let v = a.(i) in
                  if v < !mn then mn := v;
                  if v > !mx then mx := v
                done
              done;
              let span = !mx - !mn in
              if span < 0 then raise Exit;
              let bits = ref 0 in
              while span lsr !bits > 0 do
                incr bits
              done;
              mins.(c) <- !mn;
              shift_bits.(c) <- !bits;
              bits_total := !bits_total + !bits;
              if !bits_total > radix_bits then raise Exit
            done;
            let range = 1 lsl !bits_total in
            if range > (16 * total) + 1024 then raise Exit;
            (* composite keys, one pass over the runs; [slot] marks the
               keys that occur *)
            let keys = ints 0 total in
            let slot = ints 1 range in
            Array.fill slot 0 range 0;
            let off = ref 0 in
            for r = 0 to nruns - 1 do
              let rc = raw.(r) in
              let n = runs.(r).n in
              (match rc with
              | [| a0; a1 |] ->
                  let m0 = mins.(0) and m1 = mins.(1) and s1 = shift_bits.(1) in
                  for i = 0 to n - 1 do
                    let key = ((a0.(i) - m0) lsl s1) lor (a1.(i) - m1) in
                    keys.(!off + i) <- key;
                    slot.(key) <- 1
                  done
              | _ ->
                  for i = 0 to n - 1 do
                    let key = ref 0 in
                    for c = 0 to width - 1 do
                      key := (!key lsl shift_bits.(c)) lor (rc.(c).(i) - mins.(c))
                    done;
                    keys.(!off + i) <- !key;
                    slot.(!key) <- 1
                  done);
              off := !off + n
            done;
            (* Distinct keys in ascending order — which is row order, the
               key being injective on the offset values — take consecutive
               output positions: [slot.(key)] becomes position + 1. *)
            let m = ref 0 in
            for k = 0 to range - 1 do
              if slot.(k) <> 0 then begin
                incr m;
                slot.(k) <- !m
              end
            done;
            let m = !m in
            (* Scatter each row to its key's position, runs oldest first: the
               first occurrence writes the row (and negates its slot), later
               (newer) ones overwrite its tag.  Outputs are sized exactly. *)
            let out_cols = Array.init width (fun _ -> Array.make m 0) in
            let out_tags = Array.make m first.tags.(0) in
            let off = ref 0 in
            for r = 0 to nruns - 1 do
              let rc = raw.(r) and tg = runs.(r).tags in
              let n = runs.(r).n in
              for i = 0 to n - 1 do
                let key = keys.(!off + i) in
                let sl = slot.(key) in
                if sl > 0 then begin
                  slot.(key) <- -sl;
                  for c = 0 to width - 1 do
                    out_cols.(c).(sl - 1) <- rc.(c).(i)
                  done;
                  out_tags.(sl - 1) <- tg.(i)
                end
                else out_tags.(-sl - 1) <- tg.(i)
              done;
              off := !off + n
            done;
            Some
              {
                n = m;
                cols = Array.init width (fun c -> Column.I (tys.(c), out_cols.(c)));
                tags = out_tags;
              }
          with Exit -> None)

  (* ---- materialized relations: sorted-run stacks --------------------------- *)

  (** A relation as a stack of sorted runs.  A tuple's tag is the one in
      the newest run holding it: a run is pushed with every colliding
      tuple's tag already ⊕-merged into the relation's ({!delta_of_run}),
      exactly as [Interp.merge_newly] stores it, so merging runs never
      re-associates ⊕ and stays bit-identical for a non-associative ⊕ (the
      clamped float sum of [addmultprob]). *)
  type crel = {
    mutable runs : batch list;  (** newest first; each strictly sorted *)
    mutable hset : Ihs.t option;
        (** row hashes of every member tuple; [None] until first probed —
            delta relations are never probed, so they never pay for one *)
    mutable unhashed : batch list;  (** runs whose hashes are not in [hset] yet *)
    mutable prehashed : batch option;
        (** the one batch whose row hashes {!delta_of_run} already inserted
            while probing — if the next {!crel_push} pushes that exact batch
            (physical equality), it skips the hash queue entirely *)
    mutable version : int;  (** bumped on every content change *)
  }

  let crel_empty () : crel =
    { runs = []; hset = None; unhashed = []; prehashed = None; version = 0 }

  (** Flush pending runs into the membership set, building it on first use. *)
  let hset_of (c : crel) : Ihs.t =
    let s =
      match c.hset with
      | Some s -> s
      | None ->
          let total = List.fold_left (fun a (r : batch) -> a + r.n) 0 c.unhashed in
          let s = Ihs.create total in
          c.hset <- Some s;
          s
    in
    List.iter
      (fun (r : batch) ->
        let h = row_hasher r.cols in
        for i = 0 to r.n - 1 do
          Ihs.add s (h i)
        done)
      c.unhashed;
    c.unhashed <- [];
    s

  let crel_of_run (r : batch) : crel =
    let c = crel_empty () in
    if r.n > 0 then begin
      c.runs <- [ r ];
      c.unhashed <- [ r ]
    end;
    c

  let crel_of_relation (rel : P.t Tuple.Map.t) : crel =
    let c = crel_empty () in
    if not (Tuple.Map.is_empty rel) then begin
      let r = of_list (Tuple.Map.bindings rel) in
      c.runs <- [ r ];
      c.unhashed <- [ r ]
    end;
    c

  (* Amortized doubling: merging only when the newer run has caught up in
     size bounds the stack at O(log N) runs and total copying at O(N log N). *)
  let rec squash = function
    | a :: b :: rest when a.n >= b.n -> squash (union_runs b a :: rest)
    | runs -> runs

  (** Push a run whose tags already accumulate the relation's (the first
      result of {!delta_of_run}). *)
  let crel_push (c : crel) (r : batch) =
    if r.n > 0 then begin
      c.runs <- squash (r :: c.runs);
      (match c.prehashed with
      | Some b when b == r -> ()  (* hashes inserted during the delta probe *)
      | _ -> c.unhashed <- r :: c.unhashed);
      c.prehashed <- None;
      c.version <- c.version + 1
    end

  (** The whole relation as one sorted run (compacts and caches). *)
  let crel_force (c : crel) : batch =
    match c.runs with
    | [] -> empty
    | [ r ] -> r
    | newest_first ->
        let merged =
          match force_radix (List.rev newest_first) with
          | Some m -> m
          | None ->
              (* Adjacent pairwise rounds: O(N log k) total copying even when
                 the fixpoint pushed one small run per iteration (a linear
                 fold would be O(N·k) — quadratic on a chain TC). *)
              let rec round = function
                | newer :: older :: rest -> union_runs older newer :: round rest
                | tail -> tail
              in
              let rec go = function
                | [] -> empty
                | [ r ] -> r
                | runs -> go (round runs)
              in
              go newest_first
        in
        c.runs <- [ merged ];
        (* same membership, one run: re-anchor the pending-hash queue so the
           pre-merge run arrays can be collected *)
        if c.hset = None then c.unhashed <- [ merged ];
        merged

  (* Position of the row of sorted run [r] equal to row [i] of the probe,
     or -1; [cmp] is [cross_cmp r.cols probe_cols]. *)
  let find_in_run cmp (r : batch) (i : int) : int =
    let p = bound ~upper:false cmp None 0 r.n i in
    if p < r.n && cmp p i = 0 then p else -1

  let to_relation (c : crel) : P.t Tuple.Map.t =
    let r = crel_force c in
    let m = ref Tuple.Map.empty in
    for i = r.n - 1 downto 0 do
      m := Tuple.Map.add (tuple_at r i) r.tags.(i) !m
    done;
    !m

  (* Rows [idx.(0 .. m-1)] of [b] with their own tags. *)
  let select_rows (b : batch) (idx : int array) (m : int) : batch =
    if m = b.n then b
    else if m = 0 then empty
    else
      {
        n = m;
        cols = Array.map (fun c -> Column.gather c idx m) b.cols;
        tags = Array.init m (fun k -> b.tags.(idx.(k)));
      }

  (** One semi-naive round against the relation [old], for a sorted
      newly-derived run: returns [(acc, delta)].  [acc] is [newly] with each
      colliding tuple's tag replaced by the merged (old ⊕ new) tag — what
      [Interp.merge_newly] stores, and what {!crel_push} takes.  [delta] is
      [Interp.delta_of]: the rows of [acc] that are new or whose merged tag
      is not saturated. *)
  let delta_of_run ~(old : crel) (newly : batch) : batch * batch =
    if newly.n = 0 then (empty, empty)
    else if old.runs = [] then (newly, newly)
    else begin
      let hs = hset_of old in
      let hash = row_hasher newly.cols in
      (* Phase 1: membership scan that inserts each miss as it goes — on a
         growing fixpoint the whole batch is usually new, so the delta IS
         the normalized update (columns and tags shared) and the subsequent
         push of this same batch finds its hashes already inserted
         ([prehashed]), halving total hash work.  Rows in [newly] are
         distinct (it is normalized), so inserting while scanning cannot
         make a later row of the same batch look like a member.  A hit
         aborts to the verifying slow path; the partial inserts are harmless
         because every row of [newly] becomes a member on push regardless,
         and intervening probes re-verify against the runs. *)
      let hit = ref (-1) in
      (try
         for i = 0 to newly.n - 1 do
           if Ihs.probe_add hs (hash i) then begin
             hit := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !hit < 0 then begin
        old.prehashed <- Some newly;
        (newly, newly)
      end
      else begin
        (* Rows before the first hit missed the probe, so they are new.  From
           the hit on, a row in the membership set takes its tag from the
           newest run holding it, found with one comparator per run built
           once per call, not per probe.  A row whose merged tag is
           physically its old one (e.g. [true || true]) changes nothing and
           is left out of [acc]; [delta] indexes into [acc]. *)
        let runs = Array.of_list old.runs in
        let cmps = Array.map (fun (r : batch) -> cross_cmp r.cols newly.cols) runs in
        let n = newly.n in
        let aidx = ints 0 n and didx = ints 1 n and tags = tag_buf n newly.tags.(0) in
        for i = 0 to !hit - 1 do
          aidx.(i) <- i;
          didx.(i) <- i;
          tags.(i) <- newly.tags.(i)
        done;
        let ma = ref !hit and md = ref !hit in
        for i = !hit to n - 1 do
          let t_new = newly.tags.(i) in
          let p = ref (-1) and k = ref 0 in
          if Ihs.mem hs (hash i) then
            while !p < 0 && !k < Array.length runs do
              p := find_in_run cmps.(!k) runs.(!k) i;
              if !p < 0 then incr k
            done;
          if !p < 0 then begin
            aidx.(!ma) <- i;
            tags.(!ma) <- t_new;
            didx.(!md) <- !ma;
            incr ma;
            incr md
          end
          else begin
            let t_old = runs.(!k).tags.(!p) in
            let merged = P.add t_old t_new in
            if merged != t_old then begin
              aidx.(!ma) <- i;
              tags.(!ma) <- merged;
              if not (P.saturated ~old:t_old merged) then begin
                didx.(!md) <- !ma;
                incr md
              end;
              incr ma
            end
          end
        done;
        let acc = keep_rows newly aidx tags !ma in
        (acc, select_rows acc didx !md)
      end
    end

  (* ---- σ / π / ∪ / × ------------------------------------------------------- *)

  (* [e] evaluated at row indices of [b] ({!Ram.stage_vexpr}). *)
  let stage (b : batch) (e : Ram.vexpr) : int -> Value.t option =
    let arity = Array.length b.cols in
    Ram.stage_vexpr (fun j -> if j < arity then Some (Column.get b.cols.(j)) else None) e

  let select (cond : Ram.vexpr) (b : batch) : batch =
    if b.n = 0 then empty
    else begin
      let f = stage b cond in
      let idx = ints 0 b.n and tags = tag_buf b.n b.tags.(0) in
      let m = ref 0 in
      for i = 0 to b.n - 1 do
        (* [Ram.eval_cond]: failure counts as false *)
        match f i with
        | Some (Value.B true) ->
            idx.(!m) <- i;
            tags.(!m) <- b.tags.(i);
            incr m
        | _ -> ()
      done;
      keep_rows b idx tags !m
    end

  let project (m : Ram.vexpr list) (b : batch) : batch =
    if b.n = 0 then empty
    else begin
      let arity = Array.length b.cols in
      let accesses =
        List.map (function Ram.Access i when i < arity -> Some i | _ -> None) m
      in
      if List.for_all Option.is_some accesses then
        (* pure column selection: no per-row work, columns and tags shared *)
        { b with cols = Array.of_list (List.map (fun o -> b.cols.(Option.get o)) accesses) }
      else begin
        (* [Ram.eval_mapping] column by column: a row survives iff every
           component evaluates and no float result is NaN; survivors' values
           go straight into per-column buffers, never into a tuple *)
        let fs = Array.of_list (List.map (stage b) m) in
        let w = Array.length fs in
        let outs = value_bufs w b.n and kept = ints 0 b.n in
        let k = ref 0 in
        for i = 0 to b.n - 1 do
          let ok = ref true and c = ref 0 in
          while !ok && !c < w do
            (match fs.(!c) i with
            | Some (Value.Float (_, f)) when Float.is_nan f -> ok := false
            | Some v -> outs.(!c).(!k) <- v
            | None -> ok := false);
            incr c
          done;
          if !ok then begin
            kept.(!k) <- i;
            incr k
          end
        done;
        let k = !k in
        if k = 0 then empty
        else
          {
            n = k;
            cols = Array.init w (fun c -> Column.pack_prefix outs.(c) k);
            tags = Array.init k (fun x -> b.tags.(kept.(x)));
          }
      end
    end

  let union (a : batch) (b : batch) : batch =
    if a.n = 0 then b
    else if b.n = 0 then a
    else
      {
        n = a.n + b.n;
        cols = Array.map2 Column.append a.cols b.cols;
        tags = Array.append a.tags b.tags;
      }

  let concat (bs : batch list) : batch = List.fold_left union empty bs

  let product (a : batch) (b : batch) : batch =
    if a.n = 0 || b.n = 0 then empty
    else begin
      let n = a.n * b.n in
      let la = ints 0 n and lb = ints 1 n in
      for k = 0 to n - 1 do
        la.(k) <- k / b.n;
        lb.(k) <- k mod b.n
      done;
      {
        n;
        cols =
          Array.append
            (Array.map (fun c -> Column.gather c la n) a.cols)
            (Array.map (fun c -> Column.gather c lb n) b.cols);
        tags = Array.init n (fun k -> P.mult a.tags.(la.(k)) b.tags.(lb.(k)));
      }
    end

  let retag (tag : P.t) (b : batch) : batch =
    if b.n = 0 then empty else { b with tags = Array.make b.n tag }

  (* ---- − / ∩ against a normalized right-hand run --------------------------- *)

  (* Tagged negation of a matched right-hand tag (Diff-2 / anti-join). *)
  let negate (t : P.t) : P.t =
    match P.negate t with
    | Some nt -> nt
    | None -> runtime_error (P.name ^ " does not support negation")

  let diff (a : batch) (rb : batch) : batch =
    if a.n = 0 then empty
    else begin
      let cmp = cross_cmp rb.cols a.cols in
      let tags = tag_buf a.n a.tags.(0) in
      for i = 0 to a.n - 1 do
        let p = find_in_run cmp rb i in
        tags.(i) <- (if p < 0 then a.tags.(i) else P.mult a.tags.(i) (negate rb.tags.(p)))
      done;
      with_tags a tags
    end

  let intersect (a : batch) (rb : batch) : batch =
    if a.n = 0 || rb.n = 0 then empty
    else begin
      let cmp = cross_cmp rb.cols a.cols in
      let idx = ints 0 a.n and tags = tag_buf a.n a.tags.(0) in
      let m = ref 0 in
      for i = 0 to a.n - 1 do
        let p = find_in_run cmp rb i in
        if p >= 0 then begin
          idx.(!m) <- i;
          tags.(!m) <- P.mult a.tags.(i) rb.tags.(p);
          incr m
        end
      done;
      keep_rows a idx tags !m
    end

  (* ---- ⋈ / ▷ sorted-run key indices ---------------------------------------- *)

  (** Right side of a join, stable-sorted by key: probing is a binary search
      for the key's run, and walking the run {e backwards} reproduces the
      tree-walker's per-key match order (its index buckets are built by
      consing, so they are reversed). *)
  type key_index = {
    ki_cols : Column.t array;  (** key columns of the source, source row order *)
    ki_perm : int array;  (** source rows, stable-sorted by key *)
    ki_src : batch;
    ki_ikey : (Value.ty * int array) option;
        (** single-int-column keys gathered in [ki_perm] order: probes
            become binary searches over an unboxed [int array] — the hot
            path of every equi-join on an integer attribute *)
  }

  let build_key_index (keys : int list) (r : batch) : key_index =
    let kcols =
      if r.n = 0 then [||] else Array.of_list (List.map (fun k -> r.cols.(k)) keys)
    in
    let perm = Array.init r.n Fun.id in
    if Array.length kcols > 0 then sort_prefix (self_cmp kcols) perm (ints 0 r.n) r.n;
    let ikey =
      match kcols with
      | [| Column.I (ty, arr) |] -> Some (ty, Array.map (fun p -> arr.(p)) perm)
      | _ -> None
    in
    { ki_cols = kcols; ki_perm = perm; ki_src = r; ki_ikey = ikey }

  (* First position in [[from], n) of [karr] (sorted) holding a value >= [k]
     ([> k] when [upper]): the unboxed twin of {!bound} for single-int-column
     keys. *)
  let int_bound ~upper (karr : int array) (from : int) (k : int) : int =
    let lo = ref from and hi = ref (Array.length karr) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let v = karr.(mid) in
      if v < k || (upper && v = k) then lo := mid + 1 else hi := mid
    done;
    !lo

  (** [join ~lkeys left ix] with optionally only the combined columns in
      [keep] materialized (a π of pure accesses directly above the ⋈ —
      emission order and tags are those of the unprojected join, so fusing
      is observationally identical to projecting afterwards while skipping
      the gathers of dropped columns). *)
  let join ?keep ~(lkeys : int list) (left : batch) (ix : key_index) : batch =
    if left.n = 0 || ix.ki_src.n = 0 then empty
    else begin
      let pcols = Array.of_list (List.map (fun k -> left.cols.(k)) lkeys) in
      let nr = Array.length ix.ki_perm in
      (* Pass 1: each left row's range [los.(i), his.(i)) of sorted index
         positions with an equal key, which sizes the output exactly. *)
      let los = ints 0 left.n and his = ints 1 left.n in
      (match (ix.ki_ikey, pcols) with
      | _, [||] ->
          (* no keys (a cross product): every row matches every row *)
          Array.fill los 0 left.n 0;
          Array.fill his 0 left.n nr
      | Some (ty, karr), [| Column.I (pty, parr) |] when Value.equal_ty pty ty ->
          (* int-keyed probes bypass the boxed comparator entirely; the type
             tags must match or ordering would go through [Value.compare_ty]
             first *)
          for i = 0 to left.n - 1 do
            let k = parr.(i) in
            let lo = int_bound ~upper:false karr 0 k in
            los.(i) <- lo;
            his.(i) <- (if lo < nr && karr.(lo) = k then int_bound ~upper:true karr lo k else lo)
          done
      | _ ->
          let cmp = cross_cmp ix.ki_cols pcols and perm = Some ix.ki_perm in
          for i = 0 to left.n - 1 do
            let lo = bound ~upper:false cmp perm 0 nr i in
            los.(i) <- lo;
            his.(i) <-
              (if lo < nr && cmp ix.ki_perm.(lo) i = 0 then bound ~upper:true cmp perm lo nr i
               else lo)
          done);
      let n = ref 0 in
      for i = 0 to left.n - 1 do
        n := !n + his.(i) - los.(i)
      done;
      let n = !n in
      if n = 0 then empty
      else begin
        (* Pass 2: matches walk each range backwards — the tree-walker's
           reversed per-key bucket order. *)
        let la = ints 2 n and ra = ints 3 n in
        let k = ref 0 in
        for i = 0 to left.n - 1 do
          for m = his.(i) - 1 downto los.(i) do
            la.(!k) <- i;
            ra.(!k) <- ix.ki_perm.(m);
            incr k
          done
        done;
        let lw = Array.length left.cols in
        let combined_at (k : int) : Column.t =
          if k < lw then Column.gather left.cols.(k) la n
          else Column.gather ix.ki_src.cols.(k - lw) ra n
        in
        let cols =
          match keep with
          | None ->
              Array.init (lw + Array.length ix.ki_src.cols) combined_at
          | Some ks -> Array.map combined_at ks
        in
        {
          n;
          cols;
          tags = Array.init n (fun k -> P.mult left.tags.(la.(k)) ix.ki_src.tags.(ra.(k)));
        }
      end
    end

  (** Anti-join right index: one entry per distinct key, tags ⊕-folded in the
      right side's emission order ([Interp.build_antijoin_index]). *)
  type anti_index = {
    ai_cols : Column.t array;  (** key columns gathered at group leaders: strictly sorted *)
    ai_tags : P.t array;
  }

  let build_anti_index (keys : int list) (r : batch) : anti_index =
    if r.n = 0 then { ai_cols = [||]; ai_tags = [||] }
    else begin
      let ix = build_key_index keys r in
      let leaders = ints 0 r.n and tags = tag_buf r.n r.tags.(0) in
      (* walk sorted positions, folding tags per key group in emission
         (= stable-sorted) order *)
      let m = ref 0 in
      Array.iter
        (fun row ->
          if !m > 0 && cmp_rows ix.ki_cols leaders.(!m - 1) row = 0 then
            tags.(!m - 1) <- P.add tags.(!m - 1) r.tags.(row)
          else begin
            leaders.(!m) <- row;
            tags.(!m) <- r.tags.(row);
            incr m
          end)
        ix.ki_perm;
      {
        ai_cols = Array.map (fun c -> Column.gather c leaders !m) ix.ki_cols;
        ai_tags = Array.sub tags 0 !m;
      }
    end

  let antijoin ~(lkeys : int list) (left : batch) (ai : anti_index) : batch =
    if left.n = 0 then empty
    else begin
      let pcols = Array.of_list (List.map (fun k -> left.cols.(k)) lkeys) in
      let cmp = cross_cmp ai.ai_cols pcols in
      let na = Array.length ai.ai_tags in
      let tags = tag_buf left.n left.tags.(0) in
      for i = 0 to left.n - 1 do
        let p = bound ~upper:false cmp None 0 na i in
        tags.(i) <-
          (if p < na && cmp p i = 0 then P.mult left.tags.(i) (negate ai.ai_tags.(p))
           else left.tags.(i))
      done;
      with_tags left tags
    end

  (* ---- aggregation ---------------------------------------------------------- *)

  (* [body] and [dom] are normalized runs (sorted strictly by full tuple), so
     group keys are consecutive prefix ranges and groups enumerate in sorted
     key order — the same order [Interp.group_by_key] yields.  Group bodies
     are decoded back to tuples and fed to the shared {!Aggregate.Make}. *)

  let rest_at ~key_len (b : batch) (i : int) : Tuple.t =
    Array.init (Array.length b.cols - key_len) (fun c -> Column.get b.cols.(c + key_len) i)

  let key_at ~key_len (b : batch) (i : int) : Tuple.t =
    Array.init key_len (fun c -> Column.get b.cols.(c) i)

  (* first row >= [s] whose first [key_len] columns differ from row [s] *)
  let group_end ~key_len (b : batch) (s : int) : int =
    let kcols = Array.sub b.cols 0 (min key_len (Array.length b.cols)) in
    let e = ref (s + 1) in
    while !e < b.n && cmp_rows kcols s !e = 0 do
      incr e
    done;
    !e

  let group_items ~key_len (b : batch) (s : int) (e : int) : (Tuple.t * P.t) list =
    List.init (e - s) (fun k -> (rest_at ~key_len b (s + k), b.tags.(s + k)))

  (* Range [lo, hi) of [body] rows whose first [Array.length dcols] columns
     equal row [i] of [dcols]. *)
  let prefix_range (body : batch) (dcols : Column.t array) (i : int) : int * int =
    if body.n = 0 then (0, 0)
    else begin
      let klen = min (Array.length dcols) (Array.length body.cols) in
      let kcols = Array.sub body.cols 0 klen in
      let search le =
        let lo = ref 0 and hi = ref body.n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          let c = cmp_cols_across kcols dcols mid i in
          if c < 0 || (le && c = 0) then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      let lo = search false in
      if lo >= body.n || cmp_cols_across kcols dcols lo i <> 0 then (lo, lo)
      else (lo, search true)
    end

  let aggregate (agg : Ram.aggregator) ~(key_len : int) ~(arg_len : int)
      ~(group : [ `No_group | `Implicit | `Domain of batch ]) (body : batch) : batch =
    match group with
    | `No_group ->
        let items = List.init body.n (fun i -> (rest_at ~key_len body i, body.tags.(i))) in
        of_list (Agg.run agg ~arg_len items)
    | `Implicit ->
        let out = ref [] in
        let s = ref 0 in
        while !s < body.n do
          let e = group_end ~key_len body !s in
          let key = key_at ~key_len body !s in
          let results = Agg.run agg ~arg_len (group_items ~key_len body !s e) in
          List.iter (fun (r, t) -> out := (Tuple.append key r, t) :: !out) results;
          s := e
        done;
        of_list (List.rev !out)
    | `Domain dom ->
        let out = ref [] in
        for i = 0 to dom.n - 1 do
          let lo, hi = prefix_range body dom.cols i in
          let key = tuple_at dom i in
          let tg = dom.tags.(i) in
          let results = Agg.run agg ~arg_len (group_items ~key_len body lo hi) in
          List.iter (fun (r, t) -> out := (Tuple.append key r, P.mult tg t) :: !out) results
        done;
        of_list (List.rev !out)
end
