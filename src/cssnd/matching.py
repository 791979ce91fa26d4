"""Exact maximum-weight matching on general graphs (blossom algorithm).

Classic primal-dual implementation with integer weights.  It returns the
maximum-weight matching among the matchings of maximum cardinality, which
is what the merge-pair selection needs after negating costs.

The implementation follows the standard staged scheme: grow alternating
trees from free vertices, shrink odd cycles into blossoms, augment when two
trees meet, and adjust dual variables between substages.  Dual variables
are kept doubled so every quantity stays integral.  The textbook's final
dual update, made when no delta candidate is left, only lets a verifier
check the duals; nothing reads them here, so the search stops at once.

Order-preservation invariant: every comparison, tie-break and iteration
order is the textbook scheme's, so the mate array is a fixed function of
the edge list, ties included (`tests/test_matching.py` pins it; config a's
schedules depend on which optimum comes back).  It serves DMaM conflict
graphs of 9-90 vertices and up to about 2100 edges, each one component.
"""

from __future__ import annotations


def max_weight_matching(edges: list[tuple[int, int, int]]) -> list[int]:
    """Return mate[v] (vertex index or -1) for the maximum-weight matching
    of maximum cardinality.

    `edges` lists (i, j, weight) with 0-based vertex indices, i != j, at
    most one edge per pair, integer weights.
    """
    if not edges:
        return []
    nedge = len(edges)
    nvertex = 1 + max(max(i, j) for i, j, _ in edges)
    for i, j, w in edges:
        if i == j or not isinstance(w, int):
            raise ValueError("edges must join distinct vertices with int weights")

    maxweight = max(0, max(w for _, _, w in edges))

    # edge k's slack is dualvar[eu[k]] + dualvar[ev[k]] - w2[k], inlined
    eu = [i for i, _, _ in edges]
    ev = [j for _, j, _ in edges]
    w2 = [2 * w for _, _, w in edges]
    # endpoint p of edge k: p // 2 == k, p % 2 picks the side
    endpoint = [v for i, j, _ in edges for v in (i, j)]
    # the edges at each vertex: far endpoint p and edge k
    nbp, nbk = ([[] for _ in range(nvertex)] for _ in range(2))
    for k, (i, j, _) in enumerate(edges):
        for v, p in ((i, 2 * k + 1), (j, 2 * k)):
            nbp[v].append(p)
            nbk[v].append(k)

    mate = [-1] * nvertex
    label = [0] * (2 * nvertex)
    labelend = [-1] * (2 * nvertex)
    inblossom = list(range(nvertex))
    blossomparent = [-1] * (2 * nvertex)
    blossomchilds: list[list[int] | None] = [None] * (2 * nvertex)
    blossombase = list(range(nvertex)) + [-1] * nvertex
    blossomendps: list[list[int] | None] = [None] * (2 * nvertex)
    bestedge = [-1] * (2 * nvertex)
    blossombestedges: list[list[int] | None] = [None] * (2 * nvertex)
    unusedblossoms = list(range(nvertex, 2 * nvertex))
    dualvar = [maxweight] * nvertex + [0] * nvertex
    allowedge = [False] * nedge
    queue: list[int] = []

    def blossom_leaves(b: int) -> list[int]:
        """The vertices of b in depth-first order of its child lists."""
        if b < nvertex:
            return [b]
        leaves = []
        stack = [b]
        while stack:
            t = stack.pop()
            if t < nvertex:
                leaves.append(t)
            else:
                stack.extend(reversed(blossomchilds[t]))
        return leaves

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(blossom_leaves(b))
        elif t == 2:
            base = blossombase[b]
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w to find a common tree root or -1."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        v = eu[k]
        w = ev[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = []
        endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        blossomchilds[b] = path
        blossomendps[b] = endps
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        # least-slack edge (and its slack) to each S-blossom outside b
        bestto: dict[int, int] = {}
        slackto: dict[int, int] = {}
        for bv in path:
            nblist = blossombestedges[bv]
            if nblist is None:
                nblist = nbk[bv] if bv < nvertex else [
                    kk for leaf in blossom_leaves(bv) for kk in nbk[leaf]
                ]
            for kk in nblist:
                i = eu[kk]
                j = ev[kk]
                bj = inblossom[j]
                if bj == b:
                    bj = inblossom[i]
                if bj != b and label[bj] == 1:
                    kslack = dualvar[i] + dualvar[j] - w2[kk]
                    if bj not in slackto or kslack < slackto[bj]:
                        bestto[bj] = kk
                        slackto[bj] = kslack
            blossombestedges[bv] = None
            bestedge[bv] = -1
        order = sorted(bestto)
        blossombestedges[b] = [bestto[bj] for bj in order]
        bestedge[b] = bestto[min(order, key=slackto.get)] if order else -1

    def expand_blossom(b: int, endstage: bool) -> None:
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[
                    endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]
                ] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                for leaf in blossom_leaves(bv):
                    if label[leaf] != 0:
                        break
                if label[leaf] != 0:
                    label[leaf] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(leaf, 2, labelend[leaf])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k: int) -> None:
        for s, p in ((eu[k], 2 * k + 1), (ev[k], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _ in range(nvertex):
        label[:] = [0] * (2 * nvertex)
        bestedge[:] = [-1] * (2 * nvertex)
        blossombestedges[nvertex:] = [None] * nvertex
        allowedge[:] = [False] * nedge
        queue[:] = []
        for v in range(nvertex):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                dv = dualvar[v]
                # bv's least-slack edge to an S-blossom (if kb != -1), slack sb
                kb = bestedge[bv]
                sb = dualvar[eu[kb]] + dualvar[ev[kb]] - w2[kb]
                for p, k in zip(nbp[v], nbk[v]):
                    w = endpoint[p]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if allowedge[k] or (kslack := dv + dualvar[w] - w2[k]) <= 0:
                        allowedge[k] = True
                        if label[bw] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[bw] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                                bv = inblossom[v]
                                kb = bestedge[bv]
                                sb = dualvar[eu[kb]] + dualvar[ev[kb]] - w2[kb]
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[bw] == 1:
                        if kb == -1 or kslack < sb:
                            bestedge[bv] = kb = k
                            sb = kslack
                    elif label[w] == 0:
                        kk = bestedge[w]
                        if kk == -1 or kslack < (
                            dualvar[eu[kk]] + dualvar[ev[kk]] - w2[kk]
                        ):
                            bestedge[w] = k
            if augmented:
                break
            deltatype = -1
            delta = deltaedge = deltablossom = None
            for kk, bv in zip(bestedge, inblossom):
                if kk != -1 and label[bv] == 0:
                    d = dualvar[eu[kk]] + dualvar[ev[kk]] - w2[kk]
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = kk
            for b, kk in enumerate(bestedge):
                if kk != -1 and blossomparent[b] == -1 and label[b] == 1:
                    d = (dualvar[eu[kk]] + dualvar[ev[kk]] - w2[kk]) // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = kk
            for b in range(nvertex, 2 * nvertex):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or dualvar[b] < delta)
                ):
                    delta = dualvar[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                break               # no improvement left: the optimum
            if delta:
                step = (0, -delta, delta)  # by label; blossoms move by -step
                dualvar[:nvertex] = [
                    d + step[label[b]] for d, b in zip(dualvar, inblossom)
                ]
                for b in range(nvertex, 2 * nvertex):
                    if blossombase[b] >= 0 and blossomparent[b] == -1:
                        dualvar[b] -= step[label[b]]
            if deltatype == 2:
                allowedge[deltaedge] = True
                i, j = eu[deltaedge], ev[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                queue.append(eu[deltaedge])
            else:
                expand_blossom(deltablossom, False)
        if not augmented:
            break
        for b in range(nvertex, 2 * nvertex):
            if (
                blossomparent[b] == -1
                and blossombase[b] >= 0
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    result = [endpoint[p] if p >= 0 else -1 for p in mate]
    for v in range(nvertex):
        assert result[v] == -1 or result[result[v]] == v
    return result
