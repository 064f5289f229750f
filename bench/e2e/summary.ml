(** Order statistics over samples. *)

let sorted (l : float list) = Array.of_list (List.sort Float.compare l)

(** Linear interpolation between closest ranks, [q] in [0, 1]; [nan] on no
    samples. *)
let quantile (l : float list) q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

let mean = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(** First and third quartiles exactly as Python's
    [statistics.quantiles(values, n=4)] (its default "exclusive" method)
    computes them, so spreads printed here match that tool. *)
let quartiles (l : float list) : float * float =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)

(** Interquartile range over the median. *)
let rel_spread l =
  let q1, q3 = quartiles l in
  (q3 -. q1) /. Float.abs (median l)

(** Group (completion time, latency) samples into consecutive windows of
    [width] seconds from [t0], dropping the incomplete last window: one
    (requests per second, latencies) pair per window. *)
let windows ~width ~t0 ~t1 (samples : (float * float) list) : (float * float list) list =
  let n = int_of_float ((t1 -. t0) /. width) in
  let w = Array.make n [] in
  List.iter
    (fun (t, l) ->
      let i = int_of_float ((t -. t0) /. width) in
      if i >= 0 && i < n then w.(i) <- l :: w.(i))
    samples;
  Array.to_list (Array.map (fun ls -> (float_of_int (List.length ls) /. width, ls)) w)

(** The fastest [keep] share of windows (at least one), by rate: their mean
    rate and their pooled samples. *)
let quiet ~keep (ws : (float * float list) list) : float * float list =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare b a) ws in
  let k = max 1 (int_of_float (Float.ceil (keep *. float_of_int (List.length ws)))) in
  let kept = List.filteri (fun i _ -> i < k) sorted in
  (mean (List.map fst kept), List.concat_map snd kept)
