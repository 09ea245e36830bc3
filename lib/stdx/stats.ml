let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty input")

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  check_nonempty "mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "variance" xs;
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let percentile xs p =
  check_nonempty "percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.0

let min xs =
  check_nonempty "min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  check_nonempty "max" xs;
  Array.fold_left Float.max xs.(0) xs

let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let mx = mean xs and my = mean ys in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  let b = if !sxx = 0.0 then 0.0 else !sxy /. !sxx in
  let a = my -. (b *. mx) in
  let r2 =
    if !syy = 0.0 then 1.0
    else begin
      let ss_res = ref 0.0 in
      for i = 0 to n - 1 do
        let e = ys.(i) -. (a +. (b *. xs.(i))) in
        ss_res := !ss_res +. (e *. e)
      done;
      1.0 -. (!ss_res /. !syy)
    end
  in
  (a, b, r2)

let loglog_slope ns ys =
  let pts =
    List.filter (fun (n, y) -> n > 0.0 && y > 0.0)
      (Array.to_list (Array.map2 (fun n y -> (n, y)) ns ys))
  in
  let lx = Array.of_list (List.map (fun (n, _) -> log n) pts) in
  let ly = Array.of_list (List.map (fun (_, y) -> log y) pts) in
  let _, b, r2 = linear_fit lx ly in
  (b, r2)

let wilson_interval ~successes ~trials =
  if trials <= 0 then (0.0, 1.0)
  else begin
    let z = 1.96 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let center = p +. (z2 /. (2.0 *. n)) in
    let spread = z *. sqrt (((p *. (1.0 -. p)) +. (z2 /. (4.0 *. n))) /. n) in
    (Float.max 0.0 ((center -. spread) /. denom),
     Float.min 1.0 ((center +. spread) /. denom))
  end
