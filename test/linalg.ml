module Zp = Ks_field.Zp

(* Reduce the augmented matrix [m] (rows × (cols+1)) to row echelon form;
   returns the list of pivot columns in order. *)
let echelon m rows cols =
  let pivots = ref [] in
  let row = ref 0 in
  let col = ref 0 in
  while !row < rows && !col < cols do
    (* Find a pivot in this column. *)
    let pivot_row = ref (-1) in
    (try
       for r = !row to rows - 1 do
         if not (Zp.equal m.(r).(!col) Zp.zero) then begin
           pivot_row := r;
           raise Exit
         end
       done
     with Exit -> ());
    if !pivot_row < 0 then incr col
    else begin
      let pr = !pivot_row in
      if pr <> !row then begin
        let tmp = m.(pr) in
        m.(pr) <- m.(!row);
        m.(!row) <- tmp
      end;
      let inv = Zp.inv m.(!row).(!col) in
      for c = !col to cols do
        m.(!row).(c) <- Zp.mul m.(!row).(c) inv
      done;
      for r = 0 to rows - 1 do
        if r <> !row && not (Zp.equal m.(r).(!col) Zp.zero) then begin
          let factor = m.(r).(!col) in
          for c = !col to cols do
            m.(r).(c) <- Zp.sub m.(r).(c) (Zp.mul factor m.(!row).(c))
          done
        end
      done;
      pivots := (!row, !col) :: !pivots;
      incr row;
      incr col
    end
  done;
  List.rev !pivots

let solve a b =
  let rows = Array.length a in
  if rows = 0 then Some [||]
  else begin
    let cols = Array.length a.(0) in
    if Array.length b <> rows then invalid_arg "Linalg.solve: dimension mismatch";
    let m =
      Array.init rows (fun r ->
          Array.init (cols + 1) (fun c -> if c < cols then a.(r).(c) else b.(r)))
    in
    let pivots = echelon m rows cols in
    (* Inconsistent if some row is 0 = nonzero. *)
    let inconsistent =
      Array.exists
        (fun row ->
          let all_zero = ref true in
          for c = 0 to cols - 1 do
            if not (Zp.equal row.(c) Zp.zero) then all_zero := false
          done;
          !all_zero && not (Zp.equal row.(cols) Zp.zero))
        m
    in
    if inconsistent then None
    else begin
      let x = Array.make cols Zp.zero in
      List.iter (fun (r, c) -> x.(c) <- m.(r).(cols)) pivots;
      Some x
    end
  end

let rank a =
  let rows = Array.length a in
  if rows = 0 then 0
  else begin
    let cols = Array.length a.(0) in
    let m = Array.map (fun row -> Array.append row [| Zp.zero |]) a in
    List.length (echelon m rows cols)
  end
