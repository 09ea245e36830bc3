type t = { size : int; adj : int array array }

let of_edge_sets size sets =
  let adj =
    Array.init size (fun v ->
        (* [sets.(v)] is replace-populated, so the sorted keys are already
           distinct; [adjacent]'s binary search needs them ascending. *)
        Array.of_list (Ks_stdx.Dtbl.sorted_keys ~cmp:Ks_stdx.Dtbl.int_cmp sets.(v)))
  in
  { size; adj }

let random_regular rng ~n ~degree =
  if n < 3 then invalid_arg "Graph.random_regular: need at least 3 vertices";
  if degree < 2 then invalid_arg "Graph.random_regular: degree < 2";
  let cycles = (degree + 1) / 2 in
  let sets = Array.init n (fun _ -> Hashtbl.create 8) in
  let add u v =
    if u <> v then begin
      Hashtbl.replace sets.(u) v ();
      Hashtbl.replace sets.(v) u ()
    end
  in
  for _ = 1 to cycles do
    let perm = Ks_stdx.Prng.permutation rng n in
    for i = 0 to n - 1 do
      add perm.(i) perm.((i + 1) mod n)
    done
  done;
  of_edge_sets n sets

let complete n =
  if n < 1 then invalid_arg "Graph.complete: empty";
  let adj =
    Array.init n (fun v ->
        Array.init (n - 1) (fun i -> if i < v then i else i + 1))
  in
  { size = n; adj }

let n t = t.size

let neighbours t v = t.adj.(v)

let adjacent t u v =
  let a = t.adj.(u) in
  let rec search lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then search (mid + 1) hi
      else search lo mid
    end
  in
  search 0 (Array.length a)

let degree t v = Array.length t.adj.(v)

let max_degree t = Array.fold_left (fun acc a -> Stdlib.max acc (Array.length a)) 0 t.adj

let is_connected t =
  let seen = Array.make t.size false in
  let queue = Queue.create () in
  Queue.add 0 queue;
  seen.(0) <- true;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          incr count;
          Queue.add u queue
        end)
      t.adj.(v)
  done;
  !count = t.size
