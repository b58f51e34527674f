import os
import threading

import numpy as np
import pytest

import topica
from topica.estimation import TrainConfig, train


@pytest.fixture(scope="session")
def small_images():
    return [topica.normalize_image(topica.generate_dead_leaves(128, 128, 90, seed=s))
            for s in (11, 12, 13)]


@pytest.fixture(scope="session")
def small_patches(small_images):
    return topica.extract_patches_from_images(small_images, 5, 3000, seed=3)


@pytest.fixture(scope="session")
def small_whitening(small_patches):
    return topica.fit_whitening(small_patches, 16)


@pytest.fixture(scope="session")
def small_topo():
    return topica.build_topography(4, 4, 1)


@pytest.fixture(scope="session")
def small_tica(small_patches, small_whitening, small_topo):
    return train(small_patches, small_whitening, small_topo,
                 TrainConfig(seed=5, max_iters=40, tol=1e-5))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def fed_fifo():
    """`feed(path, data)` makes a FIFO at `path` that a thread fills with
    `data` once a reader opens it."""
    threads = []

    def feed(path, data):
        os.mkfifo(path)

        def write():
            try:
                with open(path, "wb") as f:
                    f.write(data)
            except BrokenPipeError:    # the reader closed it before reading everything
                pass

        thread = threading.Thread(target=write, daemon=True)
        thread.start()
        threads.append((path, thread))

    yield feed
    for path, thread in threads:
        while thread.is_alive():    # no reader opened it: let the writer's `open` return
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            thread.join(0.1)
